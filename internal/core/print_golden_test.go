package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/programs"
	"p2go/internal/workloads"
)

// printDigest is the SHA-256 of what p4.Print emits for the programs given,
// in order; a nil program (nothing offloaded) contributes nothing.
func printDigest(progs ...*p4.Program) string {
	h := sha256.New()
	for _, p := range progs {
		if p != nil {
			h.Write([]byte(p4.Print(p)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printGolden holds digests of p4.Print recorded on the commit before the
// printer became append-style. Every "compile:", "profile:", "plan:" and
// "fleetdev:" key hashes this text and those keys are spilled to disk, so a
// changed byte anywhere orphans every spilled entry: a row here moves only
// with a deliberate key-schema change.
var printGolden = map[string]string{
	"ex1/controller":           "7b627f9f3e8bd3b223db1524037da7ee678400660a950010b78c2a545f994cdd",
	"ex1/instrumented":         "e6d1e4522d0f11f45359a657a4f5af9f59422d0b0687ea8e21003a54e0f232c6",
	"ex1/optimized":            "e1883f5579c8b1d45bae509cd72d7a44260265ee7f263d4dfc7830f8acd7d1ea",
	"ex1/source":               "49f6dda252649ccbed7c19ea462934d6659ea6e16c4cb013f498de817b493992",
	"failure/controller":       "d177e69363389a10fb20f106fb12a4f4879f35464e76110208a293632795f0f6",
	"failure/instrumented":     "7c5f3dc84e3cc64f2bf651e8ddcfbed8be4859618c18f233ca300649314e709d",
	"failure/optimized":        "871b3cbc1a145f6e5263fbf171bce3f2e25f987ab82da9fd14e5c20bc4b2a729",
	"failure/source":           "51c7969aa48426181a37339f50dadc17448d42e49f98fc0924fc7f1843d2b76d",
	"generated/1-32":           "b4a871ce2d69a1b6e857e3204cb86fcdf208132277c788cf3515bbdebf6f8ee4",
	"generated/129-160":        "c339df7a0d62b585fdaf2a3bc86da6439f026fcd28eb89e651a51b6c69f2368d",
	"generated/161-192":        "7ab4ef97aed984b12588783870493d4a121fa84cef17ffc666e7309e89ebffd9",
	"generated/193-224":        "fe470309ffa67d35f7e978034d2d80c7f2eb994ba2e4fdd98a1503a00030bf41",
	"generated/225-256":        "c5446fed1f3f66cf762f4b11b73542e0579eb87751afaee1d76bfeccc649b67f",
	"generated/33-64":          "5741a0467a94dc2d0e511796901dc392bf492c1db0e59dc07064464b653d46ee",
	"generated/65-96":          "725af4de08d77d85f8718daf1856b86db6b749abca476bd666b8a2da22a599d2",
	"generated/97-128":         "1c55990567874f3cf610b19c732e970ae3533dd7568256be745c70339a4964d4",
	"l2l3_acl/controller":      "0461c5929db2c9f03b90a73359f1f36f8bb7ee541b491df43e7e92499e2c1917",
	"l2l3_acl/instrumented":    "3b7fb9a408dbcbe29b9d0800e29593ad7419dc9139fed0c06bdfdec6dc1d95a9",
	"l2l3_acl/optimized":       "59b76d5a77f4b7702e79930ae0244a7ae463fc9132653808556159adbc3246a8",
	"l2l3_acl/source":          "cb21f860650ac4f6b79fbccb6bc5d8c564afe2b270bda29cde11b4ee0a1360eb",
	"maglev/controller":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"maglev/instrumented":      "c135c6e536e372d49c33a97accc564cbede4350cfc1edf7d3020d43460331de6",
	"maglev/optimized":         "c82fffdecc62fb72fe91aebdcd9ac04121db9a2abe372c2451109b5214397578",
	"maglev/source":            "8574176686bb425fc269c5abc538dcde906b1f3874014e773d5b67c4c33fb584",
	"natgre/controller":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"natgre/instrumented":      "e92560f5cb2c52db9053bbbb7420176ff5bc9c7d97b0af0851b883670f8244ae",
	"natgre/optimized":         "1bc71d5f5621edc0edd8802a381ccac58de1478a07e15e95907900a065668b67",
	"natgre/source":            "ef791511baeea351ae1cc94aa414b7a03fdecb0ec51c37985592d0cbe325c657",
	"quickstart/controller":    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"quickstart/instrumented":  "2c1c248430af824ed1a8cdee5cf340207ed23c98e212b9deed4fd3a4a7bf6dd8",
	"quickstart/optimized":     "80489cddf2b567e9bcc7a16a959a86e6011d6a97d6c0df7e0ef0fdf1fd43b9cc",
	"quickstart/source":        "b891dca188561dc6efb9c7ace916e14f1ac257228805db2e75a1e276d20f293b",
	"sourceguard/controller":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"sourceguard/instrumented": "049305ada91be8bfb2cdcefbbc20acfe69a6d802156fb78cbfa55bf25eb0f8e7",
	"sourceguard/optimized":    "f898275c6c806470260a181eec9012c8470908dd16665806dc265942c3cf99c8",
	"sourceguard/source":       "c1fd83f798f3422a7eba7cdb1274b934f841e337b007a72af9f1d8f85e434d55",
	"stress/controller":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"stress/instrumented":      "4fcb95be5bb94a6ce7e29ec93242f0705d9e32958a42a9a6705ed82efb716cc3",
	"stress/optimized":         "a11977b2b0f562b46e67576b4005bb346b52da4c7aac9508fb72f175d3803bfb",
	"stress/source":            "07bfe47887d7875f99785da72e4ea9b1249ef74df8827c21668c62a29c205145",
	"syncookie/controller":     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"syncookie/instrumented":   "cb557c9169d9ab6cdfccae89fe92c0ee23cbdfaf97941bcc918ed3f42d2191d3",
	"syncookie/optimized":      "65fa4965ec8fc0b1ad2bfda7f18c303c84e9e2adbd62bca57af907270c1103aa",
	"syncookie/source":         "9bde3a393fa7b2ea97aeecc35247dfd41b1b58ec462937d380a6ac58401c757e",
}

// TestPrintGolden holds p4.Print to printGolden: every bundled workload as
// parsed, instrumented, optimized (default schedule, trace seed 1) and as
// the controller program of what Phase 4 offloaded, and the generator's
// programs for seeds 1-256 in blocks of 32.
func TestPrintGolden(t *testing.T) {
	got := map[string]string{}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ast := p4.MustParse(w.Source)
		if err := p4.Check(ast); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/source"] = printDigest(ast)
		ins, err := profile.Instrument(ast)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/instrumented"] = printDigest(ins.AST)
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Optimize(context.Background(), p4.MustParse(w.Source), w.Config(), trace, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/optimized"] = printDigest(res.Optimized)
		got[name+"/controller"] = printDigest(res.ControllerProgram)
	}
	for lo := int64(1); lo <= 256; lo += 32 {
		var progs []*p4.Program
		for seed := lo; seed < lo+32; seed++ {
			progs = append(progs, p4.MustParse(programs.Generate(seed).Source))
		}
		got[fmt.Sprintf("generated/%d-%d", lo, lo+31)] = printDigest(progs...)
	}
	for name, want := range printGolden {
		if got[name] != want {
			t.Errorf("%s: print digest %s, recorded %s", name, got[name], want)
		}
	}
	for name, digest := range got {
		if _, ok := printGolden[name]; !ok {
			t.Errorf("%s: no recorded digest (got %q)", name, digest)
		}
	}
}
