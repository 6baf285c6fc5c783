package fleet

import "encoding/json"

// Wire types for the lease API:
//
//	POST /api/v1/lease               LeaseRequest  -> LeaseGrant | 204
//	POST /api/v1/lease/{id}/renew    RenewRequest  -> RenewReply
//	POST /api/v1/lease/{id}/complete CompleteRequest -> 200 | 409
//
// A 204 from lease means the queue is empty right now; 409 from renew
// or complete means the lease is gone or fenced and the worker should
// abandon the unit — someone else owns it.

// LeaseRequest is a worker's pull for one unit.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant is the coordinator's answer: one leased unit plus the
// run parameters the worker needs to execute it identically to an
// in-process worker.
type LeaseGrant struct {
	LeaseID string `json:"lease_id"`
	Token   uint64 `json:"token"`
	TTL     uint64 `json:"ttl"` // lease-clock ticks until expiry without renew

	Job      string          `json:"job"`
	Unit     int             `json:"unit"` // index within the job
	Spec     json.RawMessage `json:"spec"` // service.UnitSpec
	Scale    int             `json:"scale,omitempty"`
	MaxInsts uint64          `json:"max_insts,omitempty"`
	Seed     uint64          `json:"seed,omitempty"` // the job's seed, which keys the unit's retry backoff
}

// RenewRequest heartbeats a lease.
type RenewRequest struct {
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
}

// RenewReply acknowledges a renewal.
type RenewReply struct {
	Deadline uint64 `json:"deadline"` // lease-clock tick of the new expiry
}

// CompleteRequest publishes a unit result under the fencing token.
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Token  uint64          `json:"token"`
	State  string          `json:"state"` // "done" or "failed"
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}
