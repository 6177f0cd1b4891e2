package sim

import "context"

// Loop is one main loop under test, named as its subtests are.
type Loop struct {
	Name string
	Run  func(context.Context, Config) (Result, error)
}

// Loops pairs the shipped event kernel (RunContext) with the test-only
// tick reference it is proven against, the reference first.
var Loops = []Loop{{"tick", runTickReference}, {"event", RunContext}}
