package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"unicode"
)

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

// ScanDecisionMeta extracts the generation stamp and degraded flag from an
// encoded Decision body without unmarshalling it. It understands any
// top-level object whose values are scalars — exactly what AppendDecisionJSON
// and encoding/json produce for Decision — and reports ok=false for anything
// it cannot fully account for (nested values, syntax json.Valid rejects), so a caller
// caching bodies by generation never mis-stamps one it did not understand.
// encoding/json matches keys after unescaping and case-insensitively, so a
// key with an escape, or one json would bind to generation or degraded
// without being spelled exactly so (`"DEGRADED"`), reports ok=false too.
// Trailing whitespace (the Encode newline) is accepted.
func ScanDecisionMeta(body []byte) (gen uint64, degraded bool, ok bool) {
	if !json.Valid(body) {
		return 0, false, false
	}
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return 0, false, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return 0, false, end(body, i+1)
	}
	for {
		key, j, kok := scanMetaString(body, i)
		if !kok || bytes.IndexByte(key, '\\') >= 0 ||
			string(key) != "generation" && jsonFolds(key, "generation") ||
			string(key) != "degraded" && jsonFolds(key, "degraded") {
			return 0, false, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return 0, false, false
		}
		i = skipSpace(body, i+1)
		switch {
		case string(key) == "generation":
			start := i
			j, vok := skipScalar(body, i)
			if !vok {
				return 0, false, false
			}
			g, err := strconv.ParseUint(string(body[start:j]), 10, 64)
			if err != nil {
				return 0, false, false
			}
			gen = g
			i = j
		case string(key) == "degraded":
			switch {
			case hasPrefixAt(body, i, "true"):
				degraded = true
				i += 4
			case hasPrefixAt(body, i, "false"):
				degraded = false
				i += 5
			default:
				return 0, false, false
			}
		default:
			j, vok := skipScalar(body, i)
			if !vok {
				return 0, false, false
			}
			i = j
		}
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0, false, false
		}
		if body[i] == '}' {
			return gen, degraded, end(body, i+1)
		}
		if body[i] != ',' {
			return 0, false, false
		}
		i = skipSpace(body, i+1)
	}
}

// jsonFolds reports whether encoding/json's case-insensitive match would bind
// key to the field with the lower-case ASCII name: json folds rune by rune
// with ToUpper(ToLower(r)), which also maps U+0130 and U+0131 onto 'I'.
func jsonFolds(key []byte, name string) bool {
	i := 0
	for _, r := range string(key) {
		if i >= len(name) || unicode.ToUpper(unicode.ToLower(r)) != unicode.ToUpper(rune(name[i])) {
			return false
		}
		i++
	}
	return i == len(name)
}

// scanMetaString scans a quoted string, tolerating escapes; it returns the
// raw bytes between the quotes.
func scanMetaString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	j := i + 1
	for j < len(b) {
		switch b[j] {
		case '"':
			return b[i+1 : j], j + 1, true
		case '\\':
			j += 2
		default:
			j++
		}
	}
	return nil, i, false
}

// skipScalar advances past one scalar JSON value: string, number, true,
// false, or null. Nested objects/arrays report ok=false.
func skipScalar(b []byte, i int) (next int, ok bool) {
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; {
	case c == '"':
		_, j, sok := scanMetaString(b, i)
		return j, sok
	case c == '-' || (c >= '0' && c <= '9'):
		j := i + 1
		for j < len(b) {
			c := b[j]
			if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
				j++
				continue
			}
			break
		}
		return j, true
	case hasPrefixAt(b, i, "true"):
		return i + 4, true
	case hasPrefixAt(b, i, "false"):
		return i + 5, true
	case hasPrefixAt(b, i, "null"):
		return i + 4, true
	}
	return i, false
}

func hasPrefixAt(b []byte, i int, s string) bool {
	return len(b)-i >= len(s) && string(b[i:i+len(s)]) == s
}
