package spec

import (
	"fmt"
	"strings"
)

// File is one parsed spec document: the base Spec plus the optional
// parameter grid it expands into cells.
type File struct {
	Path string
	Spec *Spec // the base spec (grid overrides not applied)
	Axes []Axis

	root *Node
}

// Axis is one grid dimension: a dotted field path and the scalar values
// it sweeps, in document order.
type Axis struct {
	Path   string // e.g. "durability.scheme"
	Name   string // last path segment, used in cell IDs
	Values []*Node
}

// Cell is one point of the expanded grid: a fully decoded spec with the
// axis overrides applied, its human-readable ID, and its content hash.
type Cell struct {
	Index  int
	ID     string            // "scheme=r3,model=empirical" (axis order)
	Axes   map[string]string // axis name -> value, for report columns
	Spec   *Spec
	Hash   string // content hash of the decoded cell (see Canonical)
	Values []string
}

// MaxCells bounds grid expansion so a typo'd axis cannot explode the
// runner.
const MaxCells = 4096

// Cells expands the grid into the full cross product. Axes vary in
// document order with the last axis fastest, so reports group naturally
// by the first axis. A file with no grid yields one cell.
func (f *File) Cells() ([]Cell, error) {
	total := 1
	for _, ax := range f.Axes {
		if total > MaxCells/len(ax.Values) {
			return nil, fmt.Errorf("%s: grid expands past %d cells", f.Path, MaxCells)
		}
		total *= len(ax.Values)
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(f.Axes))
	for {
		cell, err := f.cellAt(idx, len(cells))
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(f.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return cells, nil
}

func (f *File) cellAt(idx []int, n int) (Cell, error) {
	root := f.root.clone()
	cell := Cell{Index: n, Axes: map[string]string{}}
	var parts []string
	for i, ax := range f.Axes {
		v := ax.Values[idx[i]]
		if err := applyOverride(root, ax.Path, v, f.Path); err != nil {
			return Cell{}, err
		}
		parts = append(parts, ax.Name+"="+v.Val)
		cell.Axes[ax.Name] = v.Val
		cell.Values = append(cell.Values, v.Val)
	}
	cell.ID = strings.Join(parts, ",")
	s, err := DecodeSpec(root, f.Path)
	if err != nil {
		if cell.ID != "" {
			return Cell{}, fmt.Errorf("grid cell %s: %w", cell.ID, err)
		}
		return Cell{}, err
	}
	cell.Spec = s
	cell.Hash = Hash(s)
	return cell, nil
}

// Override sets the scalar at a dotted field path of the base document —
// what a grid axis does to each cell — and re-decodes Spec. It is how
// ustore-chaos applies a scenario flag: the document stays the one place a
// value is named and typed. Shape errors (an unknown path, a wrong type, a
// whole section) come back from the call that caused them, so the caller
// can name what carried the value. Value rules span fields (slot_moves
// needs shards >= 2), so call Spec.Validate once every override is in.
func (f *File) Override(path, value string) error {
	if err := applyOverride(f.root, path, &Node{Kind: KindScalar, Val: value}, f.Path); err != nil {
		return err
	}
	s, err := decodeShape(f.root, f.Path)
	if err != nil {
		return err
	}
	f.Spec = s
	return nil
}

// applyOverride sets the scalar at a dotted path, creating intermediate
// mappings as needed. The decoder validates the resulting field, so a
// typo'd path surfaces as its positional unknown-field error.
func applyOverride(root *Node, path string, v *Node, file string) error {
	n := root
	segs := strings.Split(path, ".")
	for _, seg := range segs[:len(segs)-1] {
		if seg == "" {
			return errAt(file, v.Line, v.Col, "override %q: empty path segment", path)
		}
		c := n.child(seg)
		if c == nil {
			c = &Node{Line: v.Line, Col: v.Col, Kind: KindMap}
			n.setChild(seg, c)
		}
		if c.Kind != KindMap {
			return errAt(file, v.Line, v.Col, "override %q: %s is a %s, not a section", path, seg, c.Kind)
		}
		n = c
	}
	last := segs[len(segs)-1]
	if last == "" || last == "grid" || (len(segs) == 1 && root.child(last) != nil && root.child(last).Kind == KindMap) {
		return errAt(file, v.Line, v.Col, "override %q: cannot override a whole section", path)
	}
	n.setChild(last, v.clone())
	return nil
}
