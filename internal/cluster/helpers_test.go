package cluster

import "acb/internal/service"

// submitResponse is a coordinator's POST /v1/jobs reply as a client
// decodes it.
type submitResponse struct {
	JobStatus
	Deduped bool `json:"deduped"`
}

func terminalState(st service.JobState) bool { return st.Terminal() }
