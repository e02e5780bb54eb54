package sched

import "specdis/internal/ir"

// ListScheduleRef exposes the reference scan scheduler to tests: the heap
// scheduler must reproduce its schedules exactly.
func ListScheduleRef(g *ir.DepGraph, numFUs int) *Schedule { return listScheduleRef(g, numFUs) }

// SetFlightHook installs fn to run as a caller of c starts scheduling a key
// (leader) or starts waiting on another caller's (!leader).
func SetFlightHook(c *Cache, fn func(leader bool)) { c.flightHook = fn }
