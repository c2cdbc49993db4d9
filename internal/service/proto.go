package service

import (
	"net/http"

	"ramr/internal/workloads"
)

// ProtoVersion is the wire-protocol generation of the job API, served on
// every response as the X-RAMR-Proto header and inside the /stats
// capabilities block. A cluster coordinator (internal/cluster) probes it
// before dispatching shards and refuses workers whose generation
// differs, so a mixed-version deployment fails loudly at admission
// instead of corrupting a merge with a partial whose shape it
// misreads. Bump it on any incompatible change to the shard or partial
// wire shapes, or to what the coordinator relies on a worker to honour.
//
// Generation 2: GET /jobs/{id}/result honours ?wait=<duration>. The
// coordinator waits on it instead of polling on a timer, so a
// generation-1 worker — which ignores the parameter and answers 202 at
// once — is refused at the probe.
const ProtoVersion = "2"

// ProtoHeader is the response header carrying ProtoVersion.
const ProtoHeader = "X-RAMR-Proto"

// Capabilities describes what this worker can do, served in the /stats
// "capabilities" section. The coordinator reads it (with the header)
// during its compatibility probe.
type Capabilities struct {
	// Proto is ProtoVersion.
	Proto string `json:"proto"`
	// Features names the optional protocol surfaces this build speaks.
	Features []string `json:"features"`
	// ShardApps lists the workloads accepting a shard spec.
	ShardApps []string `json:"shard_apps"`
	// StreamApps lists the workloads accepting a stream spec.
	StreamApps []string `json:"stream_apps"`
}

// capabilitiesDoc builds the worker's capability advertisement.
func capabilitiesDoc() Capabilities {
	return Capabilities{
		Proto:      ProtoVersion,
		Features:   []string{"jobs", "memo", "partial", "result-wait", "shard", "stream"},
		ShardApps:  workloads.ShardableApps(),
		StreamApps: []string{"SYNTH", "WC"},
	}
}

// withProto stamps the protocol version header on every response of the
// wrapped handler.
func withProto(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ProtoHeader, ProtoVersion)
		next.ServeHTTP(w, r)
	})
}
