package analysis

import (
	"go/ast"
)

// Wakecontract guards the discrete-event kernel's wake contract: after
// a component ticks, its observable state must not change before its
// reported NextEventAfter unless an external stimulus re-arms it. The
// kernel re-arms a component after every delivered tick (it asks for
// the next horizon itself), so Tick and its helpers are safe by
// construction. The hazard is every *other* timed mutating entry point
// on a component type — a cross-component stimulus like a DMA submit or
// a DRAM enqueue: the state it changes is guarded by a wake time the
// kernel no longer trusts, so each of its call paths must re-arm the
// target (eventKernel.wake, or a completion/enqueue hook that does).
//
// The analyzer finds types carrying the wake contract (a Tick and a
// NextEventAfter method taking a cycle, exported or not) and flags
// their pointer-receiver methods that take a cycle (first parameter
// clock.Global, clock.Local, or a bare int64)
// and assign to receiver state, excluding the contract surface itself
// and helpers invoked by the type's own methods. Every finding is a
// stimulus seam: audit that its callers wake the target, then allowlist
// it with a justification naming the re-arm path — the static
// counterpart of the wake-contract property tests.
var Wakecontract = &Analyzer{
	Name: "wakecontract",
	Doc:  "flags timed mutating entry points on wake-contract components; their callers must re-arm the target's wake entry",
	Run:  runWakecontract,
}

// wakeContractSurface is the contract itself plus the kernel-facing
// per-channel accessors: the kernel re-arms after calling these, so a
// state change inside them cannot go unregistered. TickChannel also
// carries an audited stimulus seam: a tick that frees a slot in a full
// queue calls Memory.OnSlotFreed, which the kernel wires to re-arm the
// MMU in the same cycle (the MMU sleeps while its admissions are
// refused).
var wakeContractSurface = map[string]bool{
	"Tick": true, "tick": true,
	"SkipTo": true, "skipTo": true,
	"NextEventAfter": true, "nextEventAfter": true,
	"TickChannel": true, "ChannelNextEventAfter": true,
}

func runWakecontract(p *Pass) {
	methods := map[string][]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if name := recvTypeName(fd); name != "" {
				methods[name] = append(methods[name], fd)
			}
		}
	}
	for _, decls := range methods {
		if !hasWakeContract(decls) {
			continue
		}
		internal := internallyCalled(decls)
		for _, fd := range decls {
			name := fd.Name.Name
			if wakeContractSurface[name] || internal[name] {
				continue
			}
			if !isPointerRecv(fd) || !firstParamInt64(fd) {
				continue
			}
			if recv := recvIdent(fd); recv != nil && mutatesReceiver(fd, recv.Name) {
				p.Report(fd.Name.Pos(),
					"timed method %s mutates wake-contract component state outside Tick; every caller must re-arm the target's wake entry (audit the seam, then allowlist it)",
					name)
			}
		}
	}
}

// hasWakeContract reports whether the method set carries the wake
// contract: a Tick and a NextEventAfter taking a cycle.
func hasWakeContract(decls []*ast.FuncDecl) bool {
	var tick, next bool
	for _, fd := range decls {
		switch fd.Name.Name {
		case "Tick", "tick":
			tick = tick || firstParamInt64(fd)
		case "NextEventAfter", "nextEventAfter":
			next = next || firstParamInt64(fd)
		}
	}
	return tick && next
}

// internallyCalled collects method names invoked on the receiver from
// within the type's own methods: those are tick/skip helpers, not entry
// points, and the kernel's post-tick re-arm covers them.
func internallyCalled(decls []*ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	for _, fd := range decls {
		recv := recvIdent(fd)
		if recv == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if root := rootIdent(sel.X); root != nil && root.Name == recv.Name {
				out[sel.Sel.Name] = true
			}
			return true
		})
	}
	return out
}

// mutatesReceiver reports whether the body assigns through the receiver
// (field writes, map/slice element writes, increments).
func mutatesReceiver(fd *ast.FuncDecl, recv string) bool {
	if fd.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if root := rootIdent(lhs); root != nil && root.Name == recv {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if root := rootIdent(n.X); root != nil && root.Name == recv {
				found = true
			}
		}
		return !found
	})
	return found
}

// recvTypeName returns the receiver's base type name ("*Memory" and
// "Memory" both map to "Memory"), or "".
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func isPointerRecv(fd *ast.FuncDecl) bool {
	_, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	return ok
}

// recvIdent returns the receiver's name, or nil for an unnamed receiver
// (which cannot mutate named state).
func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return names[0]
}

// firstParamInt64 reports whether the method's first parameter is a
// cycle: clock.Global or clock.Local (the kernel's typed clock
// domains), or a bare int64.
func firstParamInt64(fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	switch t := params.List[0].Type.(type) {
	case *ast.Ident:
		return t.Name == "int64"
	case *ast.SelectorExpr:
		if pkg, ok := t.X.(*ast.Ident); ok && pkg.Name == "clock" {
			return t.Sel.Name == "Global" || t.Sel.Name == "Local"
		}
	}
	return false
}
