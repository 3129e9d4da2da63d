package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
	"bsisa/internal/workload"
)

// pinScale is the workload scale the compile pin covers: small enough to
// run in tier-1, large enough that every profile forks and spills.
const pinScale = 0.02

// compilePin is one recorded build: the SHA-256 of the encoded program and
// the shaping pass's counts (Provenance excluded). Backends without a
// shaping pass record zero counts.
type compilePin struct {
	sha                                          string
	uncond, forks, asym, created, removed        int
	opsBefore, opsAfter, bytesBefore, bytesAfter int
}

// compilePins was recorded before the compile path moved to dense
// analyses and forwarded fault targets. Any difference means a pass changed
// its output, not just its speed.
var compilePins = map[string]compilePin{
	"compress/conventional":     {"48c788b03d356013b2d982c9f0d8e8d8ce5c9194d70c0e1f335afeb959f683c4", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"compress/block-structured": {"b3363a508eaf0cc2e1dd0724fdea1628aad45fd28fae6e488734af79a32ae726", 48, 48, 30, 66, 30, 1853, 2707, 9220, 12924},
	"compress/basicblocker":     {"26b094581e8fb8b216d58e6e66bee2b03e3d682ce4b76311ba8bfebffb33c945", 0, 0, 0, 0, 0, 1853, 1853, 9020, 9020},
	"compress/fused":            {"7daaa4d36fe55a8ea3b513d00777044dc140277624a3c551a8f04f99cc0ad910", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"gcc/conventional":          {"b04ddb99350f56f3074ddd98ce9248f5fe75f6a7d1af003904d1070c9276ed00", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"gcc/block-structured":      {"80d8d2eec9636a80f7aebf84696af3927af9e1df8a8677aa8739a050ce72d55c", 2006, 2664, 1018, 4310, 3558, 47818, 81379, 250152, 390412},
	"gcc/basicblocker":          {"7169f1437736849d56c9b205797715bd99db9f71e66a2e6b8da1f0eed01ec80c", 0, 0, 0, 0, 0, 47818, 47818, 247712, 247712},
	"gcc/fused":                 {"3542b488f5c4a5d6c795690f10d7edca9506a81444f0b5b8a4da4d2bd6b615ed", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"go/conventional":           {"71dc7a3a2b4225c11a3a2e05d0d1d2a84457a4b672509d916bd347874478bb91", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"go/block-structured":       {"224a853c3631546edfa1ac0fe1e7ac1cbe9510a85eb1fb769eb1c85c13cc7056", 1783, 2572, 959, 4185, 3728, 43407, 72975, 228148, 350076},
	"go/basicblocker":           {"4b0fe679f5bab7aeaf1c3ad998e244b6a3a3cfd4a72f83aa226c302f1b084873", 0, 0, 0, 0, 0, 43407, 43407, 226348, 226348},
	"go/fused":                  {"89bb1772103bf8115a80e826e53dd36032c4f52856bceb1bf77bf46dbcc2ce55", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"ijpeg/conventional":        {"1f5eaf56431c02640a9f1303ddace4e5a689b1f5846486b0d68c5b59b4337f0c", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"ijpeg/block-structured":    {"b4dfe6a88fd24e09f8b06b22fee14cdf8ef9cf55126af93e68d9eee0084e9895", 91, 73, 46, 100, 46, 4488, 5878, 21992, 27984},
	"ijpeg/basicblocker":        {"57b3a44b6313ad8a1be74c3c452c85a3e0bca35a72cf36423e5e3155bb33f2d0", 0, 0, 0, 0, 0, 4488, 4488, 21216, 21216},
	"ijpeg/fused":               {"06b66665139269a81a04c0901895890685efc8b17ec0c9bbe3e2fa2866fc26e8", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"li/conventional":           {"e73dd30a1b280e757fb1954e7fcd62cdbf7e3d562452458e6fc739b93d2d47bd", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"li/block-structured":       {"bdc516b271de05acc764709d458bb2c84d75907af19c28faa7e11903bd2b0249", 257, 345, 141, 549, 314, 5491, 10993, 28964, 52852},
	"li/basicblocker":           {"4f19b136efb487f2375c29689bf47d1e3ee7d1d7a97179b302252859ae01f577", 0, 0, 0, 0, 0, 5491, 5491, 28540, 28540},
	"li/fused":                  {"57e516d131a0360013814a5f45292077305fb586e7f2ff6acdf5e0cd7a68e9c2", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"m88ksim/conventional":      {"4c100b62a2af415c090a7d75f30f17c2570774648a7ebf2c24bfc1716fcb2456", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"m88ksim/block-structured":  {"6ad84b3a3701665b841e93b854748b09e1e77cb73f9f1c0d4b19ad5201b142f9", 263, 261, 162, 360, 157, 10191, 14743, 50940, 70772},
	"m88ksim/basicblocker":      {"b0a9c459d39d8d98affb79c55f09eee5c27d5ac04504cd0169fe197eec18d31d", 0, 0, 0, 0, 0, 10191, 10191, 49844, 49844},
	"m88ksim/fused":             {"52194c54f63fe8bfa6f3ae40eaa6a75d946503c27233b09481b21f5b5e91f91c", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"perl/conventional":         {"8f5b9d417509a0da0f68c1dc784f097c6f71e2d06d8fc9612ecc55e55732e7a5", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"perl/block-structured":     {"3e5998d48d501f5004638eac88c16ada534b24b0ef3a3e31661203738056bbb0", 903, 1281, 507, 2055, 1368, 19819, 38543, 104860, 185252},
	"perl/basicblocker":         {"64523e1caddb1f351ac221399812fdfda04bf265dc54da9164e96a3b926b0863", 0, 0, 0, 0, 0, 19819, 19819, 103700, 103700},
	"perl/fused":                {"1a3c5ac54ca8d41f18cfccf8bc65259016bab4c7035bb0c6f53ef39a5d528227", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"vortex/conventional":       {"4cca344bf1a89d791afd3075708c120adc2418fcd6a27187f310ccc95e3bee5b", 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"vortex/block-structured":   {"4da843599d47672c5748ac8d0d0917610cd2a249373ffc325c0474b4468bd20a", 809, 1039, 517, 1561, 683, 24875, 42989, 126924, 206404},
	"vortex/basicblocker":       {"47fd84ccc273ffe9b788f527ea315a3005f46916f9d0f62af576e3695abd3d9c", 0, 0, 0, 0, 0, 24875, 24875, 124484, 124484},
	"vortex/fused":              {"79fa2b3373ecdbdd29608a315a530a2f80f5dd90f6f8b83f0a5ab517590cd7ec", 0, 0, 0, 0, 0, 0, 0, 0, 0},
}

func pinOf(t *testing.T, src, name string, be backend.Backend) compilePin {
	t.Helper()
	prog, err := compile.Compile(src, name, compile.DefaultOptions(be.Kind()))
	if err != nil {
		t.Fatalf("%s/%s: compile: %v", name, be.Name(), err)
	}
	st, err := be.Shape(prog, core.Params{})
	if err != nil {
		t.Fatalf("%s/%s: shape: %v", name, be.Name(), err)
	}
	enc, err := isa.Encode(prog)
	if err != nil {
		t.Fatalf("%s/%s: encode: %v", name, be.Name(), err)
	}
	sum := sha256.Sum256(enc)
	pin := compilePin{sha: hex.EncodeToString(sum[:])}
	if st != nil {
		pin.uncond, pin.forks, pin.asym = st.UncondMerges, st.Forks, st.AsymForks
		pin.created, pin.removed = st.BlocksCreated, st.BlocksRemoved
		pin.opsBefore, pin.opsAfter = st.OpsBefore, st.OpsAfter
		pin.bytesBefore, pin.bytesAfter = int(st.BytesBefore), int(st.BytesAfter)
	}
	return pin
}

// TestCompileBytePin compiles and shapes every Table-2 profile for every
// backend and checks the encoded bytes and shaping counts against the
// recorded table.
func TestCompileBytePin(t *testing.T) {
	for _, p := range workload.Profiles(pinScale) {
		src, err := workload.Source(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range backend.All() {
			key := p.Name + "/" + be.Name()
			got := pinOf(t, src, p.Name, be)
			want, ok := compilePins[key]
			if !ok {
				t.Errorf("%s: no recorded pin", key)
				continue
			}
			if got != want {
				t.Errorf("%s: build changed\n got %+v\nwant %+v", key, got, want)
			}
		}
	}
}
