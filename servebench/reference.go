package main

import (
	"encoding/json"
	"io"
	"net/http"

	"kernelselect/internal/serve"
)

// The reference server is bare HTTP: a net/http handler on a loopback
// listener of its own that drains the request body and answers with one
// fixed decision body. It runs none of the program's code. Measured phases
// alternate segments of load on it with segments on the program, from the
// same callers with the same client settings, and the end-to-end timings
// are reported relative to the reference's. The host is shared, and over
// minutes it runs everything faster or slower; that moves the program and
// the reference alike, while a change to the program moves only the
// program.

// refBody is a decision as selectd renders one, so the client reads and
// decodes an answer of the same form and size.
var refBody = func() []byte {
	b, err := json.Marshal(serve.Decision{
		Device:          "r9nano",
		Shape:           "1024x1024x1024",
		Config:          allConfigs[0].String(),
		KernelID:        "ref",
		PredictedGFLOPS: 1234.5678,
		PredictedNorm:   0.987654,
		Cached:          true,
		Generation:      1,
	})
	if err != nil {
		panic(err)
	}
	return b
}()

func referenceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(refBody)
	})
}
