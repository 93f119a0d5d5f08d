package workload

import (
	"strings"
	"testing"
)

// testScale is a small parameterization every scenario can run at on the
// Small cluster: 4 objects of 64 KB per rank.
func testScale() Scale {
	return Scale{BlockSize: 64 << 10, PerRankBytes: 256 << 10}
}

func TestRegistryCoversPatternsAndScenarios(t *testing.T) {
	all := All()
	if len(all) < 7 {
		t.Fatalf("registry has %d workloads, want >= 7 (3 patterns + 4 scenarios)", len(all))
	}
	for _, want := range []string{
		"N-N", "N-1 non-strided", "N-1 strided",
		"checkpoint-restart", "metadata-storm", "analytics-scan", "producer-consumer",
	} {
		if _, ok := ByName(want); !ok {
			t.Errorf("registry missing %q (have %s)", want, strings.Join(Names(), ", "))
		}
	}
	// All() order is deterministic and matches Names().
	names := Names()
	for i, w := range all {
		if w.Name() != names[i] {
			t.Fatalf("All()[%d] = %q, Names()[%d] = %q", i, w.Name(), i, names[i])
		}
		if w.Description() == "" {
			t.Errorf("%s has no description", w.Name())
		}
	}
}

func TestByNameRoundTripsEveryRegisteredName(t *testing.T) {
	for _, name := range Names() {
		w, ok := ByName(name)
		if !ok || w.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, w, ok)
		}
	}
	// CLI-friendly mungings resolve to the same scenario.
	for token, want := range map[string]string{
		"n-1-strided":        "N-1 strided",
		"N1NonStrided":       "N-1 non-strided",
		"n-n":                "N-N",
		"metadata_storm":     "metadata-storm",
		"CHECKPOINT-RESTART": "checkpoint-restart",
		"producerconsumer":   "producer-consumer",
	} {
		w, ok := ByName(token)
		if !ok || w.Name() != want {
			t.Fatalf("ByName(%q) = %v, %v; want %q", token, w, ok, want)
		}
	}
	if _, ok := ByName("no-such-workload"); ok {
		t.Fatal("ByName hit on unregistered name")
	}
	if _, ok := ByName(""); ok {
		t.Fatal("ByName hit on empty name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName did not panic on a miss")
		}
	}()
	MustByName("no-such-workload")
}

func TestDuplicateWorkloadRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("normalized-collision Register did not panic")
		}
	}()
	// Collides with "N-1 strided" after normalization.
	Register(scenario{name: "n1strided", desc: "dup", spec: func(Scale) Spec { return Spec{} }})
}

func TestPatternWorkloadMatchesDirectRun(t *testing.T) {
	// The registered pattern workloads are the same program as a direct
	// Params run: identical elapsed time and byte counts.
	sc := testScale()
	for _, p := range []Pattern{NToN, N1NonStrided, N1Strided} {
		direct := Run(testCluster().World, sc.MPIIOParams(p))
		if PatternWorkload(p).Name() != p.String() {
			t.Fatalf("PatternWorkload(%v) = %q", p, PatternWorkload(p).Name())
		}
		viaReg := PatternWorkload(p).Run(testCluster().World, sc)
		if direct.Elapsed != viaReg.Elapsed || direct.Bytes != viaReg.Bytes {
			t.Fatalf("%v: registry run diverged: %v/%d vs %v/%d",
				p, direct.Elapsed, direct.Bytes, viaReg.Elapsed, viaReg.Bytes)
		}
		if viaReg.Workload != p.String() {
			t.Fatalf("%v: result workload = %q", p, viaReg.Workload)
		}
		if viaReg.Params.Pattern != p {
			t.Fatalf("%v: result params lost", p)
		}
	}
}

func TestCheckpointRestartEndState(t *testing.T) {
	c := testCluster()
	sc := testScale()
	res := MustByName("checkpoint-restart").Run(c.World, sc)
	ranks := c.Ranks()
	nobj := sc.ObjectsPer(checkpointEpochs)
	perEpoch := int64(ranks) * int64(nobj) * sc.BlockSize
	for e := 0; e < checkpointEpochs; e++ {
		size, _, _, ok := c.PFS.Snapshot(checkpointPath(e))
		if !ok || size != perEpoch {
			t.Fatalf("epoch %d: size = %d, ok = %v, want %d", e, size, ok, perEpoch)
		}
	}
	if res.Bytes != perEpoch*checkpointEpochs {
		t.Fatalf("bytes = %d, want %d", res.Bytes, perEpoch*checkpointEpochs)
	}
	// The restart reads the last checkpoint back in full.
	if res.BytesRead != perEpoch {
		t.Fatalf("restart read %d bytes, want %d", res.BytesRead, perEpoch)
	}
	if res.ReadElapsed <= 0 || res.IOElapsed <= 0 {
		t.Fatalf("phase accounting: io=%v read=%v", res.IOElapsed, res.ReadElapsed)
	}
}

func TestMetadataStormLeavesNothingBehind(t *testing.T) {
	c := testCluster()
	sc := testScale()
	res := MustByName("metadata-storm").Run(c.World, sc)
	ranks := c.Ranks()
	nfiles := sc.Objects()
	payload := sc.BlockSize
	if payload > metaPayload {
		payload = metaPayload
	}
	if want := int64(ranks) * int64(nfiles) * payload; res.Bytes != want {
		t.Fatalf("bytes = %d, want %d", res.Bytes, want)
	}
	// Every file was unlinked.
	for r := 0; r < ranks; r++ {
		for i := 0; i < nfiles; i++ {
			if _, _, _, ok := c.PFS.Snapshot(pfsMetaPath(r, i)); ok {
				t.Fatalf("meta file %d/%d survived the unlink phase", r, i)
			}
		}
	}
	if res.Workload != "metadata-storm" {
		t.Fatalf("workload = %q", res.Workload)
	}
}

func pfsMetaPath(rank, i int) string {
	return "/pfs/meta." + itoa(rank) + "." + itoa(i)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestAnalyticsScanReadsWholeDataset(t *testing.T) {
	c := testCluster()
	sc := testScale()
	res := MustByName("analytics-scan").Run(c.World, sc)
	total := int64(c.Ranks()) * int64(sc.Objects()) * sc.BlockSize
	size, _, _, ok := c.PFS.Snapshot(scanPath)
	if !ok || size != total {
		t.Fatalf("dataset size = %d, ok = %v, want %d", size, ok, total)
	}
	// The scan collectively re-reads the full dataset; the measured I/O
	// phase is the read phase.
	if res.BytesRead != total || res.Bytes != total {
		t.Fatalf("scan read %d / counted %d, want %d", res.BytesRead, res.Bytes, total)
	}
	if res.ReadBandwidthBps() <= 0 {
		t.Fatal("scan bandwidth not positive")
	}
}

func TestProducerConsumerReadsEveryWrittenByte(t *testing.T) {
	c := testCluster()
	sc := testScale()
	res := MustByName("producer-consumer").Run(c.World, sc)
	pairs := (c.Ranks() + 1) / 2
	total := int64(pairs) * int64(sc.Objects()) * sc.BlockSize
	size, _, _, ok := c.PFS.Snapshot(prodConsPath)
	if !ok || size != total {
		t.Fatalf("shared file size = %d, ok = %v, want %d", size, ok, total)
	}
	if res.Bytes != total {
		t.Fatalf("produced %d bytes, want %d", res.Bytes, total)
	}
	if res.BytesRead != total {
		t.Fatalf("consumed %d bytes, want %d", res.BytesRead, total)
	}
	// The read window spans only the consume phase: producers (who never
	// read) must not drag ReadStart back to launch time.
	if res.ReadElapsed <= 0 || res.ReadElapsed >= res.Elapsed {
		t.Fatalf("read window %v should cover only the consume phase of %v", res.ReadElapsed, res.Elapsed)
	}
}

func TestScenariosDeterministicAndRerunnable(t *testing.T) {
	// Every registered scenario is deterministic across fresh clusters,
	// and a single Spec is reusable (multi-run frameworks re-execute it).
	sc := testScale()
	for _, w := range All() {
		spec := w.Spec(sc)
		a := spec.Run(testCluster().World)
		b := spec.Run(testCluster().World)
		if a.Elapsed != b.Elapsed || a.Bytes != b.Bytes || a.BytesRead != b.BytesRead {
			t.Fatalf("%s: non-deterministic: (%v,%d,%d) vs (%v,%d,%d)",
				w.Name(), a.Elapsed, a.Bytes, a.BytesRead, b.Elapsed, b.Bytes, b.BytesRead)
		}
		if a.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", w.Name())
		}
		if a.Bytes <= 0 {
			t.Fatalf("%s: no bytes moved", w.Name())
		}
		if a.Workload != w.Name() {
			t.Fatalf("%s: result labeled %q", w.Name(), a.Workload)
		}
		if spec.CommandLine == "" {
			t.Fatalf("%s: no command line", w.Name())
		}
	}
}

// TestNetworkConservesMessages runs every registered workload on the Small
// cluster and checks the interconnect's books once the environment drains:
// every message sent was received, and the wire bytes charged to senders
// equal those charged to receivers, summed over all interfaces.
func TestNetworkConservesMessages(t *testing.T) {
	for _, w := range All() {
		c := testCluster()
		w.Run(c.World, testScale())
		var sent, recv, bytesSent, bytesRecv int64
		for _, node := range c.Net.Nodes() {
			ifc := c.Net.Iface(node)
			sent += ifc.MsgsSent
			recv += ifc.MsgsReceived
			bytesSent += ifc.BytesSent
			bytesRecv += ifc.BytesReceived
		}
		if sent == 0 {
			t.Errorf("%s: no messages sent", w.Name())
		}
		if sent != recv || bytesSent != bytesRecv {
			t.Errorf("%s: sent %d msgs / %d bytes, received %d msgs / %d bytes",
				w.Name(), sent, bytesSent, recv, bytesRecv)
		}
	}
}

func TestScaleObjects(t *testing.T) {
	sc := Scale{BlockSize: 64 << 10, PerRankBytes: 1 << 20}
	if sc.Objects() != 16 {
		t.Fatalf("objects = %d", sc.Objects())
	}
	if sc.ObjectsPer(4) != 4 {
		t.Fatalf("objects per 4 = %d", sc.ObjectsPer(4))
	}
	tiny := Scale{BlockSize: 1 << 20, PerRankBytes: 1}
	if tiny.Objects() != 1 || tiny.ObjectsPer(8) != 1 {
		t.Fatal("object floors broken")
	}
}
