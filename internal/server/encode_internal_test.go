package server

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"clustersched"
	"clustersched/internal/cli"
	"clustersched/internal/diag"
	"clustersched/internal/loopgen"
	"clustersched/internal/obs"
)

// plainResponse is ScheduleResponse without its methods: json.Marshal
// encodes it by reflection, the reference MarshalJSON must equal.
type plainResponse ScheduleResponse

// checkMarshal holds MarshalJSON, and json.Marshal through it, to the
// reflection encoding of r, and the reply to an exact-size buffer.
func checkMarshal(t *testing.T, r ScheduleResponse) {
	t.Helper()
	want, err := json.Marshal(plainResponse(r))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON:\n%s\nreflection:\n%s", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("MarshalJSON returned %d bytes with capacity %d, want an exact-size slice", len(got), cap(got))
	}
	viaJSON, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaJSON, want) {
		t.Fatalf("json.Marshal through MarshalJSON:\n%s\nreflection:\n%s", viaJSON, want)
	}
}

// TestMarshalMatchesReflectionOnSuite: the reply of every seed-1 suite
// loop on the four headline machines is byte-identical to the
// reflection encoding.
func TestMarshalMatchesReflectionOnSuite(t *testing.T) {
	suite := loopgen.Suite(loopgen.Options{Seed: 1})
	for _, spec := range []string{"gp:2:2:1", "fs:4:4:2", "gp:4:4:2", "grid:2"} {
		m, err := cli.ParseMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		sess := clustersched.NewSession(m)
		for i, g := range suite {
			res, err := sess.Schedule(context.Background(), g)
			if err != nil {
				t.Fatalf("%s loop %d: %v", spec, i, err)
			}
			checkMarshal(t, ResponseFor("loop", spec, res))
		}
	}
}

// TestMarshalMatchesReflectionOnEdgeCases: strings that encoding/json
// escapes (HTML characters, U+2028 and U+2029, control bytes, invalid
// UTF-8), nil and empty slices, every Stats field, and diagnostics.
func TestMarshalMatchesReflectionOnEdgeCases(t *testing.T) {
	var stats obs.Stats
	v := reflect.ValueOf(&stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000*i + 7))
	}
	strs := []string{
		"", "plain", `<script>&"quoted"\back`, "line\u2028sep\u2029para",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "bad \xff\xfe utf8 \xe2\x82", "末 é 😀", "\ufffd",
	}
	for _, s := range strs {
		checkMarshal(t, ScheduleResponse{
			Name: s, Machine: s, Kernel: s, II: 3, MII: 2, Copies: 1, Stages: 4,
			ClusterOf: []int{0, 1, -1}, CycleOf: []int{}, Stats: stats,
			Diagnostics: []diag.Diagnostic{},
		})
	}
	checkMarshal(t, ScheduleResponse{})
	checkMarshal(t, ScheduleResponse{Stats: obs.Stats{MIITime: -time.Second}, ClusterOf: []int{-9}})
	checkMarshal(t, ScheduleResponse{Name: "x", Diagnostics: []diag.Diagnostic{
		{Code: "AUD001", Severity: diag.Error, Message: "a <finding> & more", Subject: "node 3"},
		{Code: "DDG006", Severity: diag.Warning, Message: "m", File: "f", Line: 2, Fix: "fix"},
	}})
}

// FuzzMarshalMatchesReflection: any strings encode as reflection would.
func FuzzMarshalMatchesReflection(f *testing.F) {
	f.Add("dotproduct", "gp:2:2:1", "c0: load\n")
	f.Add("<&>", "\u2028", "\xff")
	f.Fuzz(func(t *testing.T, name, machine, kernel string) {
		checkMarshal(t, ScheduleResponse{Name: name, Machine: machine, Kernel: kernel,
			ClusterOf: []int{len(name)}, Diagnostics: []diag.Diagnostic{}})
	})
}
