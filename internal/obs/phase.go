package obs

import (
	"encoding/json"
	"fmt"
	"math"
)

// Hop is one step of a routing trajectory: the message sits on vertex V,
// whose model weight is W and whose objective value is Score — exactly one
// point of the paper's Figure 1. Step 0 is the placement on the walk's first
// vertex; step k >= 1 is the k-th transmission. Hops travel as events on
// local_route PhaseSpans.
type Hop struct {
	Step  int     `json:"step"`
	V     int     `json:"v"`
	W     float64 `json:"w"`
	Score float64 `json:"score"`
}

// hopJSON is the wire form of Hop: Score is typed any because the standard
// objective scores the target vertex +Inf, which bare JSON numbers cannot
// represent — non-finite scores travel as the strings "+Inf"/"-Inf"/"NaN".
type hopJSON struct {
	Step  int     `json:"step"`
	V     int     `json:"v"`
	W     float64 `json:"w"`
	Score any     `json:"score"`
}

// MarshalJSON encodes the hop, spelling a non-finite Score as a string.
func (h Hop) MarshalJSON() ([]byte, error) {
	j := hopJSON{Step: h.Step, V: h.V, W: h.W}
	if math.IsInf(h.Score, 0) || math.IsNaN(h.Score) {
		j.Score = formatPromValue(h.Score)
	} else {
		j.Score = h.Score
	}
	return json.Marshal(j)
}

// UnmarshalJSON accepts both numeric and string-spelled scores.
func (h *Hop) UnmarshalJSON(b []byte) error {
	var j hopJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	h.Step, h.V, h.W = j.Step, j.V, j.W
	switch v := j.Score.(type) {
	case float64:
		h.Score = v
	case string:
		switch v {
		case "+Inf":
			h.Score = math.Inf(1)
		case "-Inf":
			h.Score = math.Inf(-1)
		case "NaN":
			h.Score = math.NaN()
		default:
			return fmt.Errorf("obs: unknown hop score %q", v)
		}
	case nil:
	default:
		return fmt.Errorf("obs: hop score has type %T", v)
	}
	return nil
}

// Phases is the two-phase decomposition of a greedy trajectory (Figure 1 of
// the paper): node weights first grow doubly-exponentially into the network
// core (the weight phase), then the objective grows doubly-exponentially
// toward the target (the objective phase). The boundary between the phases
// is the maximum-weight hop — the core vertex the walk peaks at.
type Phases struct {
	// Hops is the number of transmissions, len(hops)-1.
	Hops int
	// Boundary is the index of the first hop attaining the maximum weight
	// (the phase boundary; -1 for an empty trajectory).
	Boundary int
	// PeakW is the maximum weight along the trajectory.
	PeakW float64
	// WeightHops and ObjectiveHops are the lengths of the two phases:
	// hops 1..Boundary climb the weight hierarchy, hops Boundary+1..Hops
	// climb the objective. They sum to Hops.
	WeightHops    int
	ObjectiveHops int
	// TwoPhase reports the Figure-1 shape: the trajectory has an interior
	// weight peak (both endpoints strictly below it), so a non-empty weight
	// phase is followed by a non-empty objective phase.
	TwoPhase bool
}

// Analyze splits a trajectory into the paper's two phases at its
// maximum-weight hop.
func Analyze(hops []Hop) Phases {
	if len(hops) == 0 {
		return Phases{Boundary: -1}
	}
	p := Phases{Hops: len(hops) - 1, PeakW: hops[0].W}
	for i, h := range hops {
		if h.W > p.PeakW {
			p.PeakW, p.Boundary = h.W, i
		}
	}
	p.WeightHops = p.Boundary
	p.ObjectiveHops = p.Hops - p.Boundary
	p.TwoPhase = p.Boundary > 0 && p.Boundary < len(hops)-1 &&
		hops[0].W < p.PeakW && hops[len(hops)-1].W < p.PeakW
	return p
}
