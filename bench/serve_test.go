package main

import (
	"encoding/json"
	"strings"
	"testing"

	"clustersched"
	"clustersched/internal/diag"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/server"
)

// TestServeOracleRejectsTampering checks that the serve oracle accepts
// the daemon's reply shape for the facade's own schedule and turns any
// single altered field into a hard failure.
func TestServeOracleRejectsTampering(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	g := loopgen.Suite(loopgen.Options{Seed: 1, Count: 1})[0]
	res, err := clustersched.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	want := expectOf(res)
	reply := func(edit func(*server.ScheduleResponse)) []byte {
		r := server.ResponseFor("warm-0", serveSpec, res)
		edit(&r)
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if err := checkReply(reply(func(*server.ScheduleResponse) {}), "warm-0", &want); err != nil {
		t.Fatalf("untampered reply rejected: %v", err)
	}
	for name, edit := range map[string]func(*server.ScheduleResponse){
		"cycle_of": func(r *server.ScheduleResponse) { r.CycleOf = append([]int(nil), r.CycleOf...); r.CycleOf[0]++ },
		"cluster_of": func(r *server.ScheduleResponse) {
			r.ClusterOf = append([]int(nil), r.ClusterOf...)
			r.ClusterOf[0] ^= 1
		},
		"ii":     func(r *server.ScheduleResponse) { r.II++ },
		"copies": func(r *server.ScheduleResponse) { r.Copies++ },
		"kernel": func(r *server.ScheduleResponse) { r.Kernel += " " },
		"name":   func(r *server.ScheduleResponse) { r.Name = "warm-1" },
		"diagnostics": func(r *server.ScheduleResponse) {
			r.Diagnostics = []diag.Diagnostic{{Code: "AUD001", Message: "tampered"}}
		},
	} {
		if err := checkReply(reply(edit), "warm-0", &want); err == nil {
			t.Errorf("reply with a tampered %s passed the oracle", name)
		}
	}

	s := &serveInst{want: []expect{want}, warm: [][]byte{reply(func(*server.ScheduleResponse) {})}}
	if err := s.verify(s.warm[0], "miss", "warm-0", 0, true); err == nil || !strings.Contains(err.Error(), "X-Cache") {
		t.Errorf("a miss where a hit was due passed: %v", err)
	}
	if err := s.verify(reply(func(r *server.ScheduleResponse) { r.CycleOf = append([]int(nil), r.CycleOf...); r.CycleOf[0]++ }), "hit", "warm-0", 0, true); err == nil {
		t.Error("a cached reply that differs from the warm reply passed")
	}
	if err := s.verify(s.warm[0], "hit", "warm-0", 0, true); err != nil {
		t.Errorf("the warm reply as a hit: %v", err)
	}
}
