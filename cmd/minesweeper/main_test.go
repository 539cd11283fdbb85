package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestCertifyJSONVerifiedLemmas runs a certified check on the Figure 2
// configs with the graph tier off and requires the -json proof object to
// report how many lemmas the checker RUP-verified.
func TestCertifyJSONVerifiedLemmas(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(cliOpts{
		dir: "../../examples/figure2", check: "blackholes", hops: 4, maxLen: 24,
		jsonOut: true, certify: true, tiers: "none", parallel: "off",
	})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, out)
	}
	var rep struct {
		Verified bool           `json:"verified"`
		Proof    map[string]any `json:"proof"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	if !rep.Verified || rep.Proof == nil {
		t.Fatalf("want a verified verdict with a proof object:\n%s", out)
	}
	verified, ok := rep.Proof["verified_lemmas"].(float64)
	if !ok {
		t.Fatalf("proof object lacks verified_lemmas:\n%s", out)
	}
	if lemmas := rep.Proof["lemmas"].(float64); verified < 0 || verified > lemmas {
		t.Fatalf("verified_lemmas %v outside [0, lemmas %v]", verified, lemmas)
	}
}
