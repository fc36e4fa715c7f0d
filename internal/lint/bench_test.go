package lint

import "testing"

// BenchmarkLintModule times one full-module studylint pass — load,
// parse, type-check (stdlib from GOROOT source), and run the whole
// analyzer suite — so the cost of the always-on `make lint` CI gate
// stays visible: `make lintbudget` asserts its mean over three runs
// against the budget.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := NewLoader("../..")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.LoadModule()
		if err != nil {
			b.Fatal(err)
		}
		if findings := Run(DefaultConfig(), pkgs); len(findings) != 0 {
			b.Fatalf("tree not clean: %d findings", len(findings))
		}
	}
}

// BenchmarkLintAnalyzer times each analyzer alone over the loaded
// module: load, type-check and index once outside every timer, then
// one sub-benchmark per analyzer. The split shows where the full-pass
// budget goes — the fixpoint analyzers (detflow, goroleak, locksafe)
// versus the single-walk lexical ones.
func BenchmarkLintAnalyzer(b *testing.B) {
	l, err := NewLoader("../..")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	ix := BuildIndex(pkgs)
	for _, a := range Analyzers() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if a.RunModule != nil {
					_ = a.RunModule(cfg, ix)
					continue
				}
				for _, pkg := range pkgs {
					if a.Applies != nil && !a.Applies(cfg, pkg.Path) {
						continue
					}
					_ = a.Run(cfg, pkg)
				}
			}
		})
	}
}
