package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"kernelselect/internal/gemm"
)

// Engine is the transport-agnostic face of the decision engine: everything a
// caller needs to ask "which kernel configuration for this GEMM shape on this
// device?" without going through HTTP. *Server implements it; the cluster
// router consumes it for its router-local degraded fallback (answering
// priceable shapes when every replica is down), and embedded callers can run
// the full serving ladder — cache, admission, degradation, closed-loop
// accounting — in-process with no listener at all.
type Engine interface {
	// Decide answers one shape on one device backend (empty device selects
	// the default). It runs the same ladder as POST /v1/select: cache hit,
	// shed check and admission budget (exhaustion degrades to the fallback
	// config), then the pricing pass. It fails only for an unknown device,
	// an invalid shape, a backend over its shed threshold, or a context that
	// expires mid-computation — never for pricing failures, which degrade
	// instead.
	Decide(ctx context.Context, device string, shape gemm.Shape) (Decision, error)

	// Devices lists the hosted device names; the first is the default route.
	Devices() []string
}

// Decide implements Engine over the decide ladder the HTTP handlers run, so
// a transport layered over Decide serves exactly what the HTTP surface
// serves.
func (s *Server) Decide(ctx context.Context, device string, shape gemm.Shape) (Decision, error) {
	be, err := s.backend(device)
	if err != nil {
		return Decision{}, err
	}
	if err := shape.Validate(); err != nil {
		return Decision{}, err
	}
	var d [1]Decision
	err = s.decide(ctx, be, []gemm.Shape{shape}, d[:])
	return d[0], err
}

// HotShape is one entry of a backend's served-shape window aggregated by
// frequency: the shape and how many window slots it currently occupies.
type HotShape struct {
	M     int `json:"m"`
	K     int `json:"k"`
	N     int `json:"n"`
	Count int `json:"count"`
}

// HotShapes aggregates the named backend's served-shape window into its
// hottest shapes, most-served first (count descending, then shape string
// ascending so equal counts order deterministically). top bounds the result
// (<= 0 returns every distinct shape). A disabled window returns an empty
// list. The cluster router's peer cache-warming reads this through
// GET /v1/window: a restarted replica pre-prices the shapes its peers
// observed while covering for it, before traffic cuts back over.
func (s *Server) HotShapes(device string, top int) ([]HotShape, error) {
	be, err := s.backend(device)
	if err != nil {
		return nil, err
	}
	if be.window == nil {
		return nil, nil
	}
	counts := make(map[gemm.Shape]int)
	for _, sh := range be.window.snapshot() {
		counts[sh]++
	}
	hot := make([]HotShape, 0, len(counts))
	for sh, c := range counts {
		hot = append(hot, HotShape{M: sh.M, K: sh.K, N: sh.N, Count: c})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Count != hot[j].Count {
			return hot[i].Count > hot[j].Count
		}
		a := gemm.Shape{M: hot[i].M, K: hot[i].K, N: hot[i].N}
		b := gemm.Shape{M: hot[j].M, K: hot[j].K, N: hot[j].N}
		return a.String() < b.String()
	})
	if top > 0 && len(hot) > top {
		hot = hot[:top]
	}
	return hot, nil
}

// windowResponse is the GET /v1/window body: the backend's current window
// occupancy and its hottest shapes.
type windowResponse struct {
	Device string     `json:"device"`
	Size   int        `json:"window_size"`
	Shapes []HotShape `json:"shapes"`
}

// handleWindow serves the backend's served-shape window summary
// (?device= picks a backend, ?top= bounds the shape list; default 64).
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	be, err := s.backend(r.URL.Query().Get("device"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	top := 64
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad top %q", v)})
			return
		}
		top = n
	}
	hot, err := s.HotShapes(be.name, top)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	size := 0
	if be.window != nil {
		size = be.window.size()
	}
	if hot == nil {
		hot = []HotShape{}
	}
	writeJSON(w, http.StatusOK, windowResponse{Device: be.name, Size: size, Shapes: hot})
}
