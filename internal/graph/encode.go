package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is a line-oriented exchange format, one block per graph:
//
//	g <id> <order> <size> <featureDim>
//	v <label> <label> ...            (order labels)
//	e <u> <v> <label>                (size lines)
//	f <f1> <f2> ...                  (featureDim values; omitted when 0)
//
// It is deliberately simple: diffable, greppable, and stable across versions.

// WriteDatabase writes db in the text format.
func WriteDatabase(w io.Writer, db *Database) error {
	bw := bufio.NewWriter(w)
	for i, n := 0, db.Len(); i < n; i++ {
		if err := writeGraph(bw, db.Graph(ID(i))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeGraph(w *bufio.Writer, g *Graph) error {
	if _, err := fmt.Fprintf(w, "g %d %d %d %d\n", g.id, g.Order(), g.Size(), len(g.features)); err != nil {
		return err
	}
	w.WriteString("v")
	for _, l := range g.labels {
		fmt.Fprintf(w, " %d", l)
	}
	w.WriteByte('\n')
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "e %d %d %d\n", e.U, e.V, e.Label)
	}
	if len(g.features) > 0 {
		w.WriteString("f")
		for _, f := range g.features {
			fmt.Fprintf(w, " %g", f)
		}
		w.WriteByte('\n')
	}
	return nil
}

// ReadDatabase parses the text format produced by WriteDatabase.
func ReadDatabase(r io.Reader) (*Database, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var graphs []*Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !strings.HasPrefix(text, "g ") {
			return nil, fmt.Errorf("graph: line %d: expected graph header, got %q", line, text)
		}
		var id, order, size, dim int
		if _, err := fmt.Sscanf(text, "g %d %d %d %d", &id, &order, &size, &dim); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad header %q: %w", line, text, err)
		}
		if order < 0 || size < 0 || dim < 0 {
			return nil, fmt.Errorf("graph: line %d: negative count in header %q", line, text)
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("graph: line %d: missing vertex line", line)
		}
		line++
		vparts := strings.Fields(sc.Text())
		if len(vparts) != order+1 || vparts[0] != "v" {
			return nil, fmt.Errorf("graph: line %d: want %d vertex labels", line, order)
		}
		// Size the builder only now: the header's count is outside input,
		// and the vertex line just proved it.
		b := NewBuilder(order)
		for _, p := range vparts[1:] {
			l, err := strconv.ParseUint(p, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad label %q: %w", line, p, err)
			}
			b.AddVertex(Label(l))
		}
		for i := 0; i < size; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("graph: line %d: missing edge %d", line, i)
			}
			line++
			var u, v int
			var l uint32
			if _, err := fmt.Sscanf(sc.Text(), "e %d %d %d", &u, &v, &l); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q: %w", line, sc.Text(), err)
			}
			b.AddEdge(u, v, Label(l))
		}
		if dim > 0 {
			if !sc.Scan() {
				return nil, fmt.Errorf("graph: line %d: missing feature line", line)
			}
			line++
			fparts := strings.Fields(sc.Text())
			if len(fparts) != dim+1 || fparts[0] != "f" {
				return nil, fmt.Errorf("graph: line %d: want %d features", line, dim)
			}
			feats := make([]float64, dim)
			for j, p := range fparts[1:] {
				f, err := strconv.ParseFloat(p, 64)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad feature %q: %w", line, p, err)
				}
				feats[j] = f
			}
			b.SetFeatures(feats)
		}
		g, err := b.Build(ID(id))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		graphs = append(graphs, g)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewDatabase(graphs)
}
