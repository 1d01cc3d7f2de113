package service

import (
	"encoding/json"
	"time"

	"acb/internal/wal"
)

// JournalVersion is the first line of every journal file. Bump it when
// entry semantics change: a mismatched journal refuses to replay instead
// of silently resurrecting jobs under different rules.
const JournalVersion = "acbd-journal/1"

// ErrJournalVersion reports a journal written under a different format
// version. It is the shared wal engine's version error: the journal is
// a thin client over internal/wal, which owns the file format, fsync
// discipline, torn-tail replay and compaction.
var ErrJournalVersion = wal.ErrVersion

// Journal is the scheduler's write-ahead log: an append-only JSONL file,
// fsync'd per record, holding every job's submit/start/requeue/terminal
// transitions. On open, the existing file is replayed — jobs with no
// terminal record are the crash survivors — and compacted down to just
// those survivors, so the journal never grows across restarts.
//
// Append-path durability is deliberate: Submit is acknowledged to the
// client only after its journal record is on disk, which is what makes
// "a 201 response means the job survives kill -9" true. The mechanics
// live in internal/wal; this type owns only the entry vocabulary and
// the replay reduction.
type Journal struct {
	log *wal.Log
}

// journalEntry is one JSONL record. Op is one of submit | start |
// requeue | done | failed | cancelled (terminal ops mirror JobState).
type journalEntry struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Submit/requeue payload. Attempt is the number of runs begun so
	// far (0 on first submit; a requeue after run N records N).
	Key     string   `json:"key,omitempty"`
	Request *Request `json:"request,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	// Terminal payload.
	Err  string    `json:"err,omitempty"`
	Time time.Time `json:"t,omitempty"`
}

// ReplayJob is one crash survivor recovered from a journal: a job that
// was queued (or running: Interrupted) when the previous daemon died.
type ReplayJob struct {
	ID      string
	Key     string
	Request Request
	// Attempt counts runs begun so far, including the interrupted one.
	Attempt int
	// Interrupted marks jobs that had started running: their in-flight
	// run counts as an attempt, and they re-enqueue at the front of the
	// recovered order just as they originally ran.
	Interrupted bool
}

// OpenJournal opens (creating if needed) the journal at path, replays
// any existing records into the list of crash-surviving jobs in original
// submission order, and compacts the file down to those survivors. The
// returned journal is open for appending.
//
// A torn final line — the tail of an append cut off by the crash the
// journal exists to survive — ends replay silently; everything before it
// is intact because each record was fsync'd before the next began.
func OpenJournal(path string) (*Journal, []ReplayJob, error) {
	recs, err := wal.Replay(path, JournalVersion)
	if err != nil {
		return nil, nil, err
	}
	pending := reduceJournal(recs)
	// Compact: header + one submit record per survivor. An interrupted
	// job's in-flight run is already folded into Attempt, so a bare
	// submit record carries it through compaction without re-bumping on
	// the next replay.
	survivors := make([]interface{}, 0, len(pending))
	for _, rj := range pending {
		req := rj.Request
		survivors = append(survivors, journalEntry{Op: "submit", ID: rj.ID, Key: rj.Key,
			Request: &req, Attempt: rj.Attempt, Time: time.Now().UTC()})
	}
	log, err := wal.Create(path, JournalVersion, survivors)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, pending, nil
}

// reduceJournal folds raw journal records down to the jobs with no
// terminal record, in submission order.
func reduceJournal(recs []json.RawMessage) []ReplayJob {
	type jobAcc struct {
		rj      ReplayJob
		started bool // a start record newer than the last submit/requeue
		dead    bool
	}
	acc := make(map[string]*jobAcc)
	var order []string
	for _, b := range recs {
		var e journalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			break // record from a future vocabulary: stop, like a torn tail
		}
		switch e.Op {
		case "submit":
			if e.Request == nil || e.ID == "" {
				continue
			}
			acc[e.ID] = &jobAcc{rj: ReplayJob{ID: e.ID, Key: e.Key, Request: *e.Request, Attempt: e.Attempt}}
			order = append(order, e.ID)
		case "start":
			if a := acc[e.ID]; a != nil {
				a.started = true
			}
		case "requeue":
			if a := acc[e.ID]; a != nil {
				a.started = false
				a.rj.Attempt = e.Attempt
			}
		case "done", "failed", "cancelled":
			if a := acc[e.ID]; a != nil {
				a.dead = true
			}
		}
	}

	var pending []ReplayJob
	for _, id := range order {
		a := acc[id]
		if a == nil || a.dead {
			continue
		}
		if a.started {
			a.rj.Attempt++
			a.rj.Interrupted = true
		}
		pending = append(pending, a.rj)
	}
	return pending
}

// SetFaults installs the fault-injection hook fired as "journal.append"
// before every record; chaos tests only.
func (j *Journal) SetFaults(f FaultPoints) {
	if j == nil {
		return
	}
	j.log.SetFaults(f, "journal")
}

// Submit records a job's acceptance. Attempt is the runs-begun count
// (0 for a fresh submission).
func (j *Journal) Submit(id, key string, req Request, attempt int) error {
	if j == nil {
		return nil
	}
	return j.log.Append(journalEntry{Op: "submit", ID: id, Key: key, Request: &req,
		Attempt: attempt, Time: time.Now().UTC()})
}

// Start records that a run of the job has begun.
func (j *Journal) Start(id string) error {
	if j == nil {
		return nil
	}
	return j.log.Append(journalEntry{Op: "start", ID: id})
}

// Requeue records a transient failure put back on the queue; attempt is
// the runs-begun count at the time of requeue.
func (j *Journal) Requeue(id string, attempt int) error {
	if j == nil {
		return nil
	}
	return j.log.Append(journalEntry{Op: "requeue", ID: id, Attempt: attempt})
}

// Terminal records a job reaching state done, failed or cancelled.
// Replay drops such jobs, so a crash after this record never re-runs
// the work.
func (j *Journal) Terminal(id string, state JobState, errMsg string) error {
	if j == nil {
		return nil
	}
	return j.log.Append(journalEntry{Op: string(state), ID: id, Err: errMsg, Time: time.Now().UTC()})
}

// Close stops the journal; later appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// syncDir fsyncs a directory so a just-renamed file inside it survives
// power loss (used by the result store's disk tier; the journal's own
// compaction syncs inside internal/wal).
func syncDir(dir string) error { return wal.SyncDir(dir) }
