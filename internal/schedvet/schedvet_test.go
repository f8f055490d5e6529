package schedvet

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"clustersched/internal/diag"
)

var fixtureDirs = []string{
	"internal/schedvet/testdata/src/allocbad",
	"internal/schedvet/testdata/src/assign",
	"internal/schedvet/testdata/src/balance",
	"internal/schedvet/testdata/src/bitset",
	"internal/schedvet/testdata/src/cache",
	"internal/schedvet/testdata/src/cachering",
	"internal/schedvet/testdata/src/clean",
	"internal/schedvet/testdata/src/compile",
	"internal/schedvet/testdata/src/membership",
	"internal/schedvet/testdata/src/testapi",
	"internal/schedvet/testdata/src/util",
}

func fixtureDiags(t *testing.T) []diag.Diagnostic {
	t.Helper()
	m, pkgs := loadFixtures(t)
	return Check(m, pkgs, DefaultConfig())
}

func loadFixtures(t *testing.T) (*Module, []*Package) {
	t.Helper()
	m, err := NewModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range fixtureDirs {
		pkg, err := m.LoadDir(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if len(pkg.Errs) > 0 {
			t.Fatalf("type errors in %s: %v", dir, pkg.Errs)
		}
		pkgs = append(pkgs, pkg)
	}
	return m, pkgs
}

// TestFixtureFindings proves every pass live: the seeded fixture
// packages produce exactly the expected findings — one per seeded
// violation, none for the sanctioned idioms, the allow annotation, or
// the out-of-scope clean package. The testapi fixture lies under
// testdata, outside VET030's internal/ scope, so it adds nothing here.
func TestFixtureFindings(t *testing.T) {
	diags := fixtureDiags(t)
	var got []string
	for _, d := range diags {
		file := d.File[strings.LastIndex(d.File, "/")+1:]
		got = append(got, d.Code+" "+file)
	}
	want := []string{
		"VET010 allocbad.go",   // make in Grow
		"VET011 allocbad.go",   // non-self append in Collect
		"VET012 allocbad.go",   // closure in Deferred
		"VET013 allocbad.go",   // boxing in Box
		"VET014 allocbad.go",   // concat in Label
		"VET015 allocbad.go",   // allocating callee of ResetAll
		"VET010 bitset.go",     // make in Resize
		"VET011 bitset.go",     // reslice-in-append in SnapshotCompact
		"VET013 bitset.go",     // boxing return in OwnerOf
		"VET001 assign.go",     // unordered map range in Sum
		"VET002 assign.go",     // time.Now in Stamp
		"VET002 assign.go",     // global rand in Jitter
		"VET003 assign.go",     // two-way select in Race
		"VET020 cache.go",      // send under lock in Put
		"VET021 cache.go",      // io under defer-held lock in Dump
		"VET002 util.go",       // time.Now reachable from assign.Schedule
		"VET020 balance.go",    // dispatch send under placement lock in Place
		"VET001 cachering.go",  // unordered map range in Points
		"VET002 membership.go", // time.Now in Touch
		"VET002 compile.go",    // time.Now in Record
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings mismatch\ngot:\n  %s\nwant:\n  %s\nfull:\n%s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "), renderAll(diags))
	}
}

func renderAll(diags []diag.Diagnostic) string {
	var b strings.Builder
	diag.Text(&b, diags)
	return b.String()
}

// TestReachabilityAttribution pins the cross-package leg of nondet:
// the finding in util names the critical root that reaches it.
func TestReachabilityAttribution(t *testing.T) {
	for _, d := range fixtureDiags(t) {
		if strings.HasSuffix(d.File, "util.go") {
			if !strings.Contains(d.Message, "reachable from assign.Schedule") {
				t.Errorf("util finding lacks root attribution: %q", d.Message)
			}
			return
		}
	}
	t.Fatal("no finding in util.go")
}

// TestFindingsSorted asserts Check returns findings in the canonical
// diag order, so CLI output is deterministic without further work.
func TestFindingsSorted(t *testing.T) {
	diags := fixtureDiags(t)
	resorted := append([]diag.Diagnostic(nil), diags...)
	diag.Sort(resorted)
	for i := range diags {
		if diags[i] != resorted[i] {
			t.Fatalf("findings not sorted at index %d: %v", i, diags[i])
		}
	}
}

// TestAllowSuppression: the select in Cancelable is identical in shape
// to the flagged one in Race, and only the annotation separates them.
func TestAllowSuppression(t *testing.T) {
	m, err := NewModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := m.LoadDir("internal/schedvet/testdata/src/assign")
	if err != nil {
		t.Fatal(err)
	}
	selects := 0
	for _, d := range Check(m, []*Package{pkg}, DefaultConfig()) {
		if d.Code == "VET003" {
			selects++
		}
	}
	if selects != 1 {
		t.Errorf("got %d VET003 findings, want exactly 1 (Race flagged, Cancelable allowed)", selects)
	}
}

// TestRealTreeClean is the enforcement test behind scripts/check.sh:
// the repository's own packages must produce zero findings, so any
// alloc-free regression or new unordered map range fails the suite.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := NewModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := m.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Errorf("type error in %s: %v", pkg.Path, e)
		}
	}
	if diags := Check(m, pkgs, DefaultConfig()); len(diags) > 0 {
		t.Errorf("schedvet findings in the real tree:\n%s", renderAll(diags))
	}
}

// TestLoadAll sanity-checks the module loader: the core packages are
// present, testdata is skipped, and positions map back into the repo.
func TestLoadAll(t *testing.T) {
	m, err := NewModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := m.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("LoadAll included testdata package %s", p.Path)
		}
	}
	for _, want := range []string{
		"clustersched",
		"clustersched/internal/assign",
		"clustersched/internal/sched",
		"clustersched/internal/mrt",
		"clustersched/internal/pipeline",
		"clustersched/internal/cache",
		"clustersched/internal/schedvet",
	} {
		if byPath[want] == nil {
			t.Errorf("LoadAll missing %s", want)
		}
	}
	if p := byPath["clustersched/internal/assign"]; p != nil && len(p.Files) == 0 {
		t.Error("assign loaded with no files")
	}
}

// TestTestAPISubjects puts the testapi fixture under VET030 and names
// its findings: the unreferenced and self-referenced functions, the
// reasonless annotation and the never-written field, while the
// annotated keepers and the interface method pass.
func TestTestAPISubjects(t *testing.T) {
	m, pkgs := loadFixtures(t)
	var fixture *Package
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "/testapi") {
			fixture = pkg
		}
	}
	c := &checker{mod: m, cfg: DefaultConfig(), pkgs: pkgs, allows: collectAllows(m, pkgs)}
	c.testapiOn([]*Package{fixture})
	var got []string
	for _, d := range c.rep.Diagnostics() {
		if d.Code == "VET030" {
			got = append(got, d.Subject)
		}
	}
	want := []string{"testapi.Bare", "testapi.Countdown", "testapi.Options.Spare", "testapi.TestOnly"}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("VET030 subjects = %v, want %v", got, want)
	}
}

// TestTestAPIStopsOnLoadError checks that VET030 judges nothing when a
// package of the module fails to load: the unreferenced function of
// the analyzed package would be a false finding, since the broken
// package's references are unknown, so the load error is reported
// instead.
func TestTestAPIStopsOnLoadError(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":          "module tmpmod\n",
		"internal/a/a.go": "package a\n\nfunc Unused() int { return 1 }\n",
		"internal/b/b.go": "package b\n\nfunc {\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := m.LoadDir("internal/a")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(m, []*Package{pkg}, DefaultConfig())
	if len(diags) != 1 || diags[0].Code != "VET030" || diags[0].Subject != "" ||
		!strings.Contains(diags[0].Message, "failed to load") {
		t.Errorf("diags = \n%s, want one VET030 load failure", renderAll(diags))
	}
}
