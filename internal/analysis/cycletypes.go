package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Cycletypes enforces the typed clock-domain discipline built on
// clock.Local and clock.Global. The types themselves make direct mixing
// a compile error; what remains expressible — and what this analyzer
// bans — are the casts that launder a cycle count across the boundary:
//
//  1. Raw 64-bit integers and constants must not be cast into
//     clock.Local or clock.Global. A typed value is born at a declared
//     boundary (`var deadline clock.Global = ...`, a typed const, or a
//     clock.Domain conversion), not mid-expression. Conversions from
//     plain int/int32 fields (e.g. DRAM timing parameters) are allowed:
//     they cannot carry a cycle count from the wrong domain.
//  2. Typed cycle values must leave the domain only through the
//     sanctioned exit, .Int64() — never via int64(x) or a narrowing
//     integer cast, and never by casting clock.Local directly to
//     clock.Global (that is what clock.Domain is for).
//  3. Arithmetic and comparisons must not mix the two domains, even
//     when laundered through int64(x) or x.Int64() on both sides.
//
// Sites where a raw integer legitimately enters the typed domain (e.g.
// config parsing) carry a `//lint:allow cycletypes <why>` directive.
// The clock package itself, which defines the types and the Domain
// arithmetic, is exempt.
var Cycletypes = &Analyzer{
	Name: "cycletypes",
	Doc:  "enforces clock.Local/clock.Global hygiene: no raw casts in or out, no laundered cross-domain arithmetic",
	Run:  runCycletypes,
}

const clockPkgSuffix = "internal/clock"

func runCycletypes(p *Pass) {
	if strings.HasSuffix(p.Types.Path(), clockPkgSuffix) {
		return // the clock package defines the domain arithmetic
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCycleCast(p, n)
			case *ast.BinaryExpr:
				checkLaunderedMix(p, n)
			}
			return true
		})
	}
}

// cycleTypeName returns "Local" or "Global" if t is the corresponding
// named type from the clock package, else "".
func cycleTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), clockPkgSuffix) {
		return ""
	}
	if name := obj.Name(); name == "Local" || name == "Global" {
		return name
	}
	return ""
}

// checkCycleCast polices explicit conversions at the typed-domain
// boundary (rules 1 and 2).
func checkCycleCast(p *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	arg := call.Args[0]
	src := p.Info.TypeOf(arg)
	if src == nil {
		return
	}
	dstCycle := cycleTypeName(tv.Type)
	srcCycle := cycleTypeName(src)

	// A constant operand is recorded with the converted-to type, so
	// check constness before comparing domains.
	if dstCycle != "" {
		if atv, ok := p.Info.Types[arg]; ok && atv.Value != nil {
			p.Report(call.Pos(), "constant cast into clock.%s; declare a typed const or var instead (untyped constants assign without conversion)", dstCycle)
			return
		}
	}

	switch {
	case dstCycle != "" && srcCycle != "":
		if dstCycle != srcCycle {
			p.Report(call.Pos(), "cast converts clock.%s directly to clock.%s; convert through clock.Domain (ToGlobal/LocalFloor)", srcCycle, dstCycle)
		}
	case dstCycle != "":
		// Raw value entering the typed domain.
		if b, ok := src.Underlying().(*types.Basic); ok {
			switch b.Kind() {
			case types.Int64, types.Uint64:
				p.Report(call.Pos(), "raw %s cast into clock.%s; a cycle count enters the typed domain only at a declared boundary (or carry a //lint:allow cycletypes justification)", b.Name(), dstCycle)
			}
		}
	case srcCycle != "":
		// Typed value leaving the domain.
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			p.Report(call.Pos(), "%s(clock.%s) strips the clock domain; use .Int64() at the sanctioned exit", b.Name(), srcCycle)
		}
	}
}

// checkLaunderedMix flags arithmetic whose operands trace back to
// different clock domains through int64(x) or x.Int64() laundering
// (rule 3). Directly typed mixing is already a compile error.
func checkLaunderedMix(p *Pass, be *ast.BinaryExpr) {
	switch be.Op {
	case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	if !isInteger(p.Info.TypeOf(be.X)) || !isInteger(p.Info.TypeOf(be.Y)) {
		return
	}
	dx, dy := cycleDomainOf(p, be.X), cycleDomainOf(p, be.Y)
	if dx != "" && dy != "" && dx != dy {
		p.Report(be.Pos(), "arithmetic mixes clock.%s and clock.%s cycles (%s %s %s); convert through clock.Domain first",
			dx, dy, leafName(be.X), be.Op, leafName(be.Y))
	}
}

// cycleDomainOf classifies an expression's clock domain: its static
// type if typed, else tainting through int64(x) conversions and
// x.Int64() calls.
func cycleDomainOf(p *Pass, e ast.Expr) string {
	for {
		if pe, ok := e.(*ast.ParenExpr); ok {
			e = pe.X
			continue
		}
		break
	}
	if t := p.Info.TypeOf(e); t != nil {
		if name := cycleTypeName(t); name != "" {
			return name
		}
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	// int64(x): conversion keeps x's domain.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return cycleDomainOf(p, call.Args[0])
	}
	// x.Int64(): the sanctioned exit still taints the expression.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Int64" {
		if t := p.Info.TypeOf(sel.X); t != nil {
			return cycleTypeName(t)
		}
	}
	return ""
}
