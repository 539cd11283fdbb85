package drat

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// benchProof solves a fixed random 3-SAT instance past the phase
// transition and returns its trace: every run checks the same proof.
func benchProof(b *testing.B) *sat.Proof {
	b.Helper()
	s, p := randomCNF(rand.New(rand.NewSource(2017)), 200, 5.0)
	if st := s.Solve(); st != sat.Unsat {
		b.Fatalf("benchmark instance is %v, want unsat", st)
	}
	return p
}

func benchmarkCheck(b *testing.B, check func(*sat.Proof) (*Stats, error)) {
	p := benchProof(b)
	b.ResetTimer()
	var st *Stats
	for i := 0; i < b.N; i++ {
		var err error
		if st, err = check(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Lemmas)*float64(b.N)/b.Elapsed().Seconds(), "lemmas/s")
	b.ReportMetric(float64(st.Verified), "verified")
}

func BenchmarkCheck(b *testing.B) {
	benchmarkCheck(b, func(p *sat.Proof) (*Stats, error) { return Check(p) })
}

func BenchmarkCheckCore(b *testing.B) {
	benchmarkCheck(b, func(p *sat.Proof) (*Stats, error) {
		st, _, err := CheckCore(p)
		return st, err
	})
}
