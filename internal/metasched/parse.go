package metasched

import (
	"errors"
	"fmt"
	"strings"

	"schedsearch/internal/sim"
)

var errEmptyPortfolio = errors.New("metasched: portfolio needs at least one member policy")

// MemberParser builds one portfolio member from its policy name — the
// base (non-meta) ParsePolicy, injected by the facade so metasched
// never imports it (no cycle).
type MemberParser func(name string, nodeLimit int) (sim.Policy, error)

// IsSpec reports whether a policy name uses the meta(...) portfolio
// grammar (it may still fail to parse).
func IsSpec(name string) bool { return strings.HasPrefix(name, "meta(") }

// Parse builds a Meta from the portfolio grammar
// "meta(SPEC,SPEC,...)", where each SPEC is any base policy name the
// member parser accepts ("DDS/lxf/dynB", "FCFS-backfill", ...). Every
// member receives the same node limit. The grammar is strict —
// trailing garbage after the closing parenthesis, empty member slots
// and nested portfolios are rejected — so Parse(m.Name()) round-trips
// exactly.
func Parse(name string, nodeLimit int, member MemberParser) (*Meta, error) {
	if !IsSpec(name) {
		return nil, fmt.Errorf("metasched: %q is not a meta(...) portfolio spec", name)
	}
	if !strings.HasSuffix(name, ")") {
		return nil, fmt.Errorf("metasched: %q: missing closing parenthesis", name)
	}
	inner := name[len("meta(") : len(name)-1]
	if inner == "" {
		return nil, errEmptyPortfolio
	}
	specs := strings.Split(inner, ",")
	members := make([]sim.Policy, 0, len(specs))
	for _, spec := range specs {
		if spec == "" {
			return nil, fmt.Errorf("metasched: %q: empty member slot", name)
		}
		if strings.ContainsAny(spec, "()") {
			return nil, fmt.Errorf("metasched: %q: nested portfolios are not supported", name)
		}
		p, err := member(spec, nodeLimit)
		if err != nil {
			return nil, err
		}
		members = append(members, p)
	}
	return New(members, Config{})
}
