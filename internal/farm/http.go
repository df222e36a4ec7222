package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Wire types for the HTTP/JSON work-pull protocol. All endpoints are POST
// with JSON bodies except GET /v1/status.

// PullRequest asks for one job lease.
type PullRequest struct {
	Worker string `json:"worker"`
}

// PullResponse carries a leased job, an idle signal (queue drained; poll
// again), or a shutdown signal (campaign over; exit).
type PullResponse struct {
	Job      *Job `json:"job,omitempty"`
	Shutdown bool `json:"shutdown,omitempty"`
}

// SubmitRequest reports one run's outcome: exactly one of Result or Error
// is set. Millis is the run's wall time, feeding the dispatcher's ETA.
type SubmitRequest struct {
	Worker string      `json:"worker"`
	ID     int64       `json:"id"`
	Key    string      `json:"key"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
	Millis float64     `json:"millis"`
}

// HeartbeatRequest extends the worker's leases and streams its progress:
// the job IDs still running, the worker's workload-cache counters, and
// its process-wide workpool budget occupancy (how many slots its in-flight
// runs have claimed, out of the process's limit).
type HeartbeatRequest struct {
	Worker      string         `json:"worker"`
	IDs         []int64        `json:"ids"`
	Cache       workload.Stats `json:"cache"`
	BudgetInUse int            `json:"budget_in_use"`
	BudgetLimit int            `json:"budget_limit"`
}

type okResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Handler serves the dispatcher's work-pull protocol:
//
//	POST /v1/pull      PullRequest      -> PullResponse
//	POST /v1/submit    SubmitRequest    -> okResponse
//	POST /v1/heartbeat HeartbeatRequest -> okResponse
//	GET  /v1/status                     -> Status
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/pull", func(w http.ResponseWriter, r *http.Request) {
		var req PullRequest
		if !readJSON(w, r, &req) {
			return
		}
		job, ok, shutdown := d.Pull(req.Worker)
		resp := PullResponse{Shutdown: shutdown}
		if ok {
			resp.Job = &job
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/submit", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := d.SubmitResult(req.Worker, req.ID, req.Key, req.Result, req.Error, req.Millis); err != nil {
			writeJSON(w, okResponse{Error: err.Error()})
			return
		}
		writeJSON(w, okResponse{OK: true})
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		d.Heartbeat(req)
		writeJSON(w, okResponse{OK: true})
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.Status())
	})
	return mux
}

// maxBodyBytes bounds every POST body. The largest legitimate request is a
// submit carrying a sim.Result with a recorded timeline (tens of KB), so
// 16 MiB is far past anything a worker sends while still capping what one
// hostile request can make the dispatcher buffer.
const maxBodyBytes = 16 << 20

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), status)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
