package serve

import "net/http"

// This file is the package's wire toolkit as seen by other tiers. The cluster
// router proxies selectd's JSON surface and wants the same zero-allocation
// treatment the replica hot path got: read the body into a pooled buffer,
// scan the canonical request form without reflection, and append-encode
// responses byte-identically to encoding/json. Exporting thin wrappers keeps
// one copy of the format knowledge — if the Decision encoding changes, the
// router's pre-rendered cache bodies change with it.

// ReadRequestBody reads r's body into buf (caller-pooled scratch), growing it
// only when the body outsizes the buffer. Semantics are identical to the
// serving handlers' own body reads, including the MaxBytesReader error shape
// for oversized bodies.
func ReadRequestBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	return readBody(w, r, buf)
}

// ParseSelectWire scans the canonical {"m":..,"k":..,"n":..,"device":".."}
// select request without allocating. ok=false means the body is something the
// fast scanner does not fully trust (escapes, floats, unknown fields, nested
// values) and the caller should fall back to a full decoder. device aliases
// body and must be consumed before the buffer is reused.
func ParseSelectWire(body []byte) (m, k, n int, device []byte, ok bool) {
	p, ok := parseSelectBody(body)
	return p.m, p.k, p.n, p.device, ok
}

// AppendDecisionJSON append-encodes one Decision exactly as encoding/json
// renders it (field order, omitempty, number formatting), without the
// trailing newline.
func AppendDecisionJSON(b []byte, d *Decision) []byte { return appendDecision(b, d) }

// AppendBatchJSON append-encodes a batch response body ({"results":[...]}),
// without the trailing newline.
func AppendBatchJSON(b []byte, results []Decision) []byte { return appendBatch(b, results) }
