package ir

import (
	"fmt"
	"sort"
	"strings"

	"p2go/internal/p4"
)

// PathStep is one table application on an execution path, together with the
// match outcome the path assumes.
type PathStep struct {
	Table string
	Hit   bool
}

func (s PathStep) String() string {
	if s.Hit {
		return s.Table + ":hit"
	}
	return s.Table + ":miss"
}

// Path is one complete execution path through the ingress control.
type Path []PathStep

func (p Path) String() string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.String()
	}
	return strings.Join(parts, " -> ")
}

// Tables returns the table names on the path, in order.
func (p Path) Tables() []string {
	out := make([]string, len(p))
	for i, s := range p {
		out[i] = s.Table
	}
	return out
}

// MaxPaths caps control-graph enumeration; programs P2GO handles are tiny,
// so hitting the cap indicates a pathological input.
const MaxPaths = 1 << 16

// EnumeratePaths computes the control graph: every distinct execution path
// through the ingress control, where each applied table may hit or miss and
// each condition may be true or false. The result is deterministic
// (sorted lexicographically).
func (p *Program) EnumeratePaths() ([]Path, error) {
	paths, err := extend([]Path{nil}, p.Ingress.Body)
	if err != nil {
		return nil, err
	}
	// Deduplicate (e.g. an if with no else contributes identical
	// continuations) and sort for determinism. Each path's key is built
	// once; the comparator and the dedup set both read it.
	type keyed struct {
		key  string
		path Path
	}
	seen := make(map[string]bool, len(paths))
	uniq := make([]keyed, 0, len(paths))
	for _, pt := range paths {
		k := pt.String()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, keyed{k, pt})
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].key < uniq[j].key })
	out := make([]Path, len(uniq))
	for i, u := range uniq {
		out[i] = u.path
	}
	return out, nil
}

// extend splits every seed path across the hit/miss and then/else branches
// of block b, returning all resulting paths.
func extend(seed []Path, b *p4.BlockStmt) ([]Path, error) {
	if b == nil {
		return seed, nil
	}
	paths := seed
	for _, s := range b.Stmts {
		var next []Path
		switch v := s.(type) {
		case *p4.ApplyStmt:
			for _, pt := range paths {
				hitPath := append(append(Path(nil), pt...), PathStep{Table: v.Table, Hit: true})
				missPath := append(append(Path(nil), pt...), PathStep{Table: v.Table, Hit: false})
				hitExt, err := extend([]Path{hitPath}, v.Hit)
				if err != nil {
					return nil, err
				}
				missExt, err := extend([]Path{missPath}, v.Miss)
				if err != nil {
					return nil, err
				}
				next = append(next, hitExt...)
				next = append(next, missExt...)
			}
		case *p4.IfStmt:
			for _, pt := range paths {
				thenExt, err := extend([]Path{append(Path(nil), pt...)}, v.Then)
				if err != nil {
					return nil, err
				}
				next = append(next, thenExt...)
				elseExt, err := extend([]Path{append(Path(nil), pt...)}, v.Else)
				if err != nil {
					return nil, err
				}
				next = append(next, elseExt...)
			}
		case *p4.BlockStmt:
			ext, err := extend(paths, v)
			if err != nil {
				return nil, err
			}
			next = ext
		default:
			next = paths
		}
		if len(next) > MaxPaths {
			return nil, fmt.Errorf("ir: control graph exceeds %d paths", MaxPaths)
		}
		paths = next
	}
	return paths, nil
}
