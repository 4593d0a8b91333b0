package core

import (
	"fmt"

	"github.com/flux-lang/flux/internal/lang/ast"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/lang/token"
)

// Compile parses a Flux program and builds it: the one front-to-middle
// pipeline every caller shares. The name appears in diagnostics.
func Compile(name, src string) (*Program, error) {
	prog, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return Build(prog)
}

// Build runs the complete middle-end pipeline over a parsed program and
// returns the analyzed Program, ready for a runtime, simulator, profiler,
// or code generator. It corresponds to passes one through three of the
// compiler described in §3.1 plus flattening and path numbering.
func Build(prog *ast.Program) (*Program, error) {
	b := &builder{
		p: &Program{
			Name:     prog.File,
			Nodes:    make(map[string]*Node),
			Typedefs: make(map[string]*Typedef),
			Sessions: make(map[string]string),
			Graphs:   make(map[string]*FlatGraph),
		},
	}
	b.collect(prog)
	b.link(prog)
	if err := b.errs.Err(); err != nil {
		return nil, err
	}
	if err := typecheck(b.p); err != nil {
		return nil, err
	}
	if err := assignLocks(b.p); err != nil {
		return nil, err
	}
	if err := flattenAll(b.p); err != nil {
		return nil, err
	}
	return b.p, nil
}

type builder struct {
	p    *Program
	errs ErrorList
}

func (b *builder) errorf(pos token.Position, format string, args ...any) {
	b.errs = append(b.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// node returns the named node, creating a placeholder if necessary. The
// link phase reports placeholders that were never defined.
func (b *builder) node(name string, pos token.Position) *Node {
	if n, ok := b.p.Nodes[name]; ok {
		return n
	}
	n := &Node{Name: name, Kind: Concrete, Pos: pos}
	b.p.Nodes[name] = n
	b.p.Order = append(b.p.Order, name)
	return n
}

// collect performs the first pass: it registers every declared entity so
// that later references resolve regardless of declaration order.
func (b *builder) collect(prog *ast.Program) {
	defined := make(map[string]token.Position)
	declareDef := func(name string, pos token.Position, what string) bool {
		if prev, ok := defined[name]; ok {
			b.errorf(pos, "%s %q redeclared (previous declaration at %s)", what, name, prev)
			return false
		}
		defined[name] = pos
		return true
	}

	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.NodeSig:
			if !declareDef(d.Name, d.NamePos, "node") {
				continue
			}
			n := b.node(d.Name, d.NamePos)
			n.Kind = Concrete
			n.Pos = d.NamePos
			n.In = d.Inputs
			n.Out = d.Outputs
			n.hasSig = true

		case *ast.FlowDecl:
			if !declareDef(d.Name, d.NamePos, "node") {
				continue
			}
			n := b.node(d.Name, d.NamePos)
			n.Kind = Abstract
			n.Pos = d.NamePos

		case *ast.DispatchDecl:
			// Multiple cases share a name; only the first "defines" it.
			if prev, ok := defined[d.Name]; ok {
				if b.p.Nodes[d.Name] == nil || b.p.Nodes[d.Name].Kind != Conditional {
					b.errorf(d.NamePos, "node %q redeclared as conditional (previous declaration at %s)", d.Name, prev)
					continue
				}
			} else {
				defined[d.Name] = d.NamePos
			}
			n := b.node(d.Name, d.NamePos)
			n.Kind = Conditional
			n.Pos = d.NamePos

		case *ast.TypedefDecl:
			if prev, ok := b.p.Typedefs[d.Name]; ok {
				b.errorf(d.NamePos, "predicate type %q redeclared (previous declaration at %s)", d.Name, prev.Pos)
				continue
			}
			b.p.Typedefs[d.Name] = &Typedef{Name: d.Name, Func: d.Func, Pos: d.NamePos}
		}
	}
}

// link performs the second pass: it connects flows, dispatch cases,
// sources, error handlers, session functions and atomicity constraints to
// their nodes, reporting references to undefined entities.
func (b *builder) link(prog *ast.Program) {
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.FlowDecl:
			n := b.p.Nodes[d.Name]
			if n.Kind != Abstract {
				continue // redeclaration already reported
			}
			for _, name := range d.Nodes {
				n.Body = append(n.Body, b.ref(name, d.NamePos))
			}

		case *ast.DispatchDecl:
			n := b.p.Nodes[d.Name]
			if n.Kind != Conditional {
				continue
			}
			c := &Case{Pattern: d.Pattern, Pos: d.NamePos}
			for _, name := range d.Body {
				c.Body = append(c.Body, b.ref(name, d.NamePos))
			}
			for _, e := range d.Pattern {
				if !e.Wildcard {
					if _, ok := b.p.Typedefs[e.Type]; !ok {
						b.errorf(e.ElemPos, "undefined predicate type %q in dispatch for %q", e.Type, d.Name)
					}
				}
			}
			n.Cases = append(n.Cases, c)

		case *ast.SourceDecl:
			src := b.ref(d.Source, d.SourcePos)
			tgt := b.ref(d.Target, d.SourcePos)
			if src == nil || tgt == nil {
				continue
			}
			b.p.Sources = append(b.p.Sources, &Source{Node: src, Target: tgt, Pos: d.SourcePos})

		case *ast.ErrorHandlerDecl:
			n := b.ref(d.Node, d.HandlePos)
			h := b.ref(d.Handler, d.HandlePos)
			if n == nil || h == nil {
				continue
			}
			if n == h {
				b.errorf(d.HandlePos, "node %q cannot handle its own errors", n.Name)
				continue
			}
			if n.Handler != nil {
				b.errorf(d.HandlePos, "node %q already has an error handler (%q)", n.Name, n.Handler.Name)
				continue
			}
			n.Handler = h

		case *ast.AtomicDecl:
			n := b.ref(d.Node, d.AtomicPos)
			if n == nil {
				continue
			}
			seen := make(map[string]bool)
			for _, c := range n.Declared {
				seen[c.Name] = true
			}
			for _, c := range d.Constraints {
				if seen[c.Name] {
					b.errorf(d.AtomicPos, "constraint %q repeated on node %q", c.Name, n.Name)
					continue
				}
				seen[c.Name] = true
				n.Declared = append(n.Declared, c)
			}

		case *ast.SessionDecl:
			if _, ok := b.p.Nodes[d.Source]; !ok {
				b.errorf(d.SessionPos, "session declaration references undefined node %q", d.Source)
				continue
			}
			if prev, ok := b.p.Sessions[d.Source]; ok {
				b.errorf(d.SessionPos, "source %q already has session function %q", d.Source, prev)
				continue
			}
			b.p.Sessions[d.Source] = d.Func
		}
	}

	if len(b.p.Sources) == 0 && b.errs.Err() == nil {
		b.errorf(token.Position{}, "program declares no source node")
	}
}

// ref resolves a node reference, reporting an error for undefined names.
func (b *builder) ref(name string, pos token.Position) *Node {
	n, ok := b.p.Nodes[name]
	if !ok {
		b.errorf(pos, "reference to undefined node %q", name)
		return nil
	}
	return n
}
