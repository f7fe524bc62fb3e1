package core

import (
	"repro/internal/route"
)

// Protocol names a routing protocol in the registry. The value is the
// protocol's registered name ("greedy", "phi-dfs", ...); the zero value ""
// selects the default protocol, greedy. Because Protocol is a string type,
// registry names convert directly: nw.Route("phi-dfs", s, t).
type Protocol string

// String names the protocol for reports.
func (p Protocol) String() string {
	if p == "" {
		return "greedy"
	}
	return string(p)
}

// Register adds a protocol to the engine's registry. Protocols register by
// value; the same registry backs route.Lookup, core.Lookup and every place
// a protocol name is accepted. It panics on duplicate or empty names.
func Register(p route.Protocol) { route.Register(p) }

// Lookup resolves a registered protocol by name. The error for an unknown
// name lists every registered protocol.
func Lookup(name string) (route.Protocol, error) { return route.Lookup(string(name)) }

// reportOrder fixes the display order of the built-in protocols in tables
// and sweeps (pure greedy and its lookahead variant first, then the
// patchers). Externally registered protocols follow in registration order.
var reportOrder = []Protocol{"greedy", "greedy+lookahead", "phi-dfs", "history", "gravity-pressure"}

// Protocols lists all registered protocols: the built-ins in report order,
// then any externally registered protocols in registration order.
func Protocols() []Protocol {
	registered := route.Registered()
	builtin := make(map[Protocol]bool, len(reportOrder))
	for _, p := range reportOrder {
		builtin[p] = true
	}
	out := make([]Protocol, 0, len(registered))
	out = append(out, reportOrder...)
	for _, name := range registered {
		if !builtin[Protocol(name)] {
			out = append(out, Protocol(name))
		}
	}
	return out
}

// resolve maps a config-level Protocol to its implementation; the zero value
// selects greedy.
func resolve(p Protocol) (route.Protocol, error) {
	if p == "" {
		p = "greedy"
	}
	return route.Lookup(string(p))
}
