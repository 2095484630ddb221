package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// The cluster suite drives real multi-node topologies: N servers, each
// with its own store/cache/fleet, wired over loopback HTTP. The
// headline property under test is the ISSUE's acceptance bar — a
// scatter/gather report is byte-identical to a single-node analysis of
// the same upload — plus the failure semantics around it (replica
// fallback, degraded answers, cluster cache hits).

// swapHandler gives a node a stable URL before its Server exists: the
// fleet needs every member's address at construction, so the listeners
// come up first and the handlers are plugged in after.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	sh.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (sh *swapHandler) set(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

// clusterNode is one member: its Server (white-box access), its HTTP
// endpoint, and the swap point used to simulate restarts.
type clusterNode struct {
	id  string
	srv *Server
	ts  *httptest.Server
	sh  *swapHandler
}

// kill makes the node unreachable (connection refused), as a crashed
// process would be.
func (n *clusterNode) kill() { n.ts.Close() }

// newTestCluster brings up an n-node cluster on loopback. mutate (if
// non-nil) adjusts each node's Config before construction; background
// liveness probing is off by default so tests control detection
// explicitly.
func newTestCluster(t testing.TB, n int, mutate func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	parts := make([]string, n)
	for i := range nodes {
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{id: fmt.Sprintf("n%d", i), ts: ts, sh: sh}
		parts[i] = nodes[i].id + "=" + ts.URL
	}
	peers := strings.Join(parts, ",")
	for i, nd := range nodes {
		cfg := Config{Peers: peers, NodeID: nd.id, PeerProbeInterval: -1, PeerTimeout: 5 * time.Second}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nd.srv = mustNew(t, cfg)
		nd.sh.set(nd.srv.Handler())
	}
	return nodes
}

// getRaw fetches a URL and returns status, headers, and body.
func fetchRaw(t testing.TB, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// getReport fetches a report and requires 200.
func getReport(t testing.TB, base, name, query string) (http.Header, []byte) {
	t.Helper()
	code, hdr, body := fetchRaw(t, base+"/v1/traces/"+name+"/report"+query)
	if code != http.StatusOK {
		t.Fatalf("report %s%s: %d %s", name, query, code, clip(body))
	}
	return hdr, body
}

// sortedByLess returns tr's jobs in the canonical (submit, id) order so
// tests can split them into an initial upload and an append batch.
func sortedJobs(tr *trace.Trace) []*trace.Job {
	jobs := append([]*trace.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(i, k int) bool { return jobLess(jobs[i], jobs[k]) })
	return jobs
}

// TestClusterReportByteIdentity is the acceptance bar: a 3-node
// scatter/gather report — whole trace and windowed, queried through
// every member — is byte-for-byte the single-node answer for the same
// upload.
func TestClusterReportByteIdentity(t *testing.T) {
	tr := genTrace(t, "FB-2009", 1, 24*time.Hour)

	_, single := newTestServer(t)
	ingestTrace(t, single, "golden", tr)
	_, wantFull := getReport(t, single.URL, "golden", "")
	_, wantWin := getReport(t, single.URL, "golden", "?window=6h")

	nodes := newTestCluster(t, 3, nil)
	info := ingestTrace(t, nodes[0].ts, "golden", tr)
	if !info.Cluster || info.Shards != 3 {
		t.Fatalf("ingest info not clustered: %+v", info)
	}
	if info.Jobs != tr.Len() {
		t.Fatalf("ingest jobs %d, want %d", info.Jobs, tr.Len())
	}

	for i, nd := range nodes {
		hdr, body := getReport(t, nd.ts.URL, "golden", "")
		if !bytes.Equal(body, wantFull) {
			t.Errorf("node %d full report differs from single-node (%d vs %d bytes)", i, len(body), len(wantFull))
		}
		if got := hdr.Get("X-Cluster-Shards"); got != "3" {
			t.Errorf("node %d X-Cluster-Shards %q", i, got)
		}
		if hdr.Get("X-Analysis") == "degraded" {
			t.Errorf("node %d degraded with all nodes up", i)
		}
		_, win := getReport(t, nd.ts.URL, "golden", "?window=6h")
		if !bytes.Equal(win, wantWin) {
			t.Errorf("node %d windowed report differs from single-node", i)
		}
	}

	// The first coordinated report must have scattered and merged all
	// three shards somewhere.
	var scatters, merges uint64
	for _, nd := range nodes {
		st := nd.srv.cluster.fleet.Stats()
		scatters += st.Scatters
		merges += st.Merges
	}
	if scatters == 0 || merges == 0 {
		t.Errorf("no scatter/merge recorded: scatters=%d merges=%d", scatters, merges)
	}

	// Every member lists the distributed trace once and hides the shard
	// replicas it stores locally.
	for i, nd := range nodes {
		var list struct {
			Traces []TraceInfo `json:"traces"`
		}
		getJSON(t, nd.ts.URL+"/v1/traces", &list)
		if len(list.Traces) != 1 || list.Traces[0].Name != "golden" || !list.Traces[0].Cluster {
			t.Errorf("node %d list %+v", i, list.Traces)
		}
		var got TraceInfo
		getJSON(t, nd.ts.URL+"/v1/traces/golden", &got)
		if got != info {
			t.Errorf("node %d info %+v != ingest %+v", i, got, info)
		}
	}
}

// TestClusterAppendExtendsFingerprint: cluster appends — proxied
// through a non-home node — extend the trace so that both its content
// fingerprint and its reports match a single-node server that ingested
// everything in one shot.
func TestClusterAppendExtendsFingerprint(t *testing.T) {
	tr := genTrace(t, "CC-b", 2, 36*time.Hour)
	jobs := sortedJobs(tr)
	cut := len(jobs) * 2 / 3
	first := &trace.Trace{Meta: tr.Meta, Jobs: jobs[:cut]}
	batch := &trace.Trace{Meta: tr.Meta, Jobs: jobs[cut:]}
	whole := &trace.Trace{Meta: tr.Meta, Jobs: jobs}

	_, single := newTestServer(t)
	want := ingestTrace(t, single, "live", whole)
	_, wantBody := getReport(t, single.URL, "live", "")

	nodes := newTestCluster(t, 3, nil)
	ingestTrace(t, nodes[0].ts, "live", first)

	// Append through a node that is NOT the trace's home so the proxy
	// hop is exercised.
	home := nodes[0].srv.cluster.fleet.Home("live")
	var prox *clusterNode
	for _, nd := range nodes {
		if nd.id != home {
			prox = nd
			break
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, batch); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(prox.ts.URL+"/v1/traces/live/append", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, clip(body))
	}
	if got := resp.Header.Get("X-Fleet-Proxied"); got != home {
		t.Errorf("X-Fleet-Proxied %q, want %q", got, home)
	}

	var got TraceInfo
	getJSON(t, nodes[2].ts.URL+"/v1/traces/live", &got)
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("appended fingerprint %s != one-shot %s", got.Fingerprint, want.Fingerprint)
	}
	if got.Jobs != want.Jobs {
		t.Errorf("appended jobs %d != %d", got.Jobs, want.Jobs)
	}
	for i, nd := range nodes {
		_, rep := getReport(t, nd.ts.URL, "live", "")
		if !bytes.Equal(rep, wantBody) {
			t.Errorf("node %d post-append report differs from single-node", i)
		}
	}
}

// TestClusterKillNodeReplicaServed: with replication 2, losing one node
// mid-service leaves every shard a live owner — reports stay complete
// and byte-identical, not degraded.
func TestClusterKillNodeReplicaServed(t *testing.T) {
	tr := genTrace(t, "FB-2009", 3, 24*time.Hour)
	_, single := newTestServer(t)
	ingestTrace(t, single, "ha", tr)
	_, want := getReport(t, single.URL, "ha", "")

	nodes := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.Replication = 2 })
	ingestTrace(t, nodes[0].ts, "ha", tr)

	nodes[2].kill()

	hdr, body := getReport(t, nodes[0].ts.URL, "ha", "")
	if !bytes.Equal(body, want) {
		t.Errorf("replica-served report differs from single-node")
	}
	if hdr.Get("X-Analysis") == "degraded" || hdr.Get("X-Cluster-Missing-Shards") != "" {
		t.Errorf("report degraded despite replication=2: X-Analysis=%q missing=%q",
			hdr.Get("X-Analysis"), hdr.Get("X-Cluster-Missing-Shards"))
	}
}

// TestClusterDegradedPath: with replication 1, a downed owner's shards
// are simply gone — the report still answers 200 from the remaining
// shards, marked degraded with the missing shard list, and the partial
// answer is never cached.
func TestClusterDegradedPath(t *testing.T) {
	tr := genTrace(t, "CC-b", 4, 30*time.Hour)
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.Replication = 1 })

	// Pick a name whose single-replica placement puts at least one shard
	// on a node other than n0 (the query node) — deterministic, since
	// the ring is.
	f := nodes[0].srv.cluster.fleet
	name, victim := "", ""
	for c := 0; c < 64 && victim == ""; c++ {
		cand := "deg-" + strconv.Itoa(c)
		for i := 0; i < 3; i++ {
			if owner := f.Owners(shardKey(cand, i), 1)[0]; owner != "n0" {
				name, victim = cand, owner
				break
			}
		}
	}
	if victim == "" {
		t.Fatal("no candidate name places a shard off n0")
	}
	ingestTrace(t, nodes[0].ts, name, tr)
	for _, nd := range nodes {
		if nd.id == victim {
			nd.kill()
		}
	}

	for attempt := 0; attempt < 2; attempt++ {
		code, hdr, body := fetchRaw(t, nodes[0].ts.URL+"/v1/traces/"+name+"/report")
		if code != http.StatusOK {
			t.Fatalf("degraded report attempt %d: %d %s", attempt, code, clip(body))
		}
		if hdr.Get("X-Analysis") != "degraded" {
			t.Fatalf("attempt %d: X-Analysis %q, want degraded", attempt, hdr.Get("X-Analysis"))
		}
		if hdr.Get("X-Cluster-Missing-Shards") == "" {
			t.Fatalf("attempt %d: no missing-shard list", attempt)
		}
		// Never cached: a degraded answer must be recomputed while the
		// owner is down (it may be back next time).
		if hdr.Get("X-Cache") != "MISS" {
			t.Fatalf("attempt %d: degraded answer served from cache (X-Cache %q)", attempt, hdr.Get("X-Cache"))
		}
	}
	if st := nodes[0].srv.cluster.fleet.Stats(); st.Degraded == 0 {
		t.Errorf("degraded counter not incremented: %+v", st)
	}
}

// TestClusterCacheServesWarmFromAnyNode: once any member has computed a
// report, every other member answers the identical query from the
// cluster cache — no second scatter.
func TestClusterCacheServesWarmFromAnyNode(t *testing.T) {
	tr := genTrace(t, "CC-b", 5, 30*time.Hour)
	nodes := newTestCluster(t, 3, nil)
	ingestTrace(t, nodes[0].ts, "warm", tr)

	_, first := getReport(t, nodes[0].ts.URL, "warm", "?top=5")
	for i := 1; i < 3; i++ {
		hdr, body := getReport(t, nodes[i].ts.URL, "warm", "?top=5")
		if !bytes.Equal(body, first) {
			t.Errorf("node %d warm body differs", i)
		}
		local, remote := hdr.Get("X-Cache"), hdr.Get("X-Cluster-Cache")
		if local != "HIT" && remote != "HIT" {
			t.Errorf("node %d not served warm: X-Cache=%q X-Cluster-Cache=%q", i, local, remote)
		}
		if st := nodes[i].srv.cluster.fleet.Stats(); st.Scatters != 0 {
			t.Errorf("node %d scattered %d time(s) for a warm result", i, st.Scatters)
		}
	}
}

// TestClusterWindowedScanAggregation: when shard owners serve a window
// out-of-core, the coordinator sums their X-Scan-* pruning evidence
// into the scatter response — and the out-of-core windowed answer is
// still byte-identical to the in-memory single-node one.
func TestClusterWindowedScanAggregation(t *testing.T) {
	tr := genTrace(t, "FB-2009", 6, 24*time.Hour)
	_, single := newTestServer(t)
	ingestTrace(t, single, "cold", tr)
	_, want := getReport(t, single.URL, "cold", "?window=4h")

	// A tiny hot tier plus a durable backing forces every shard replica
	// to disk, so windows are served by the pruned segment scan.
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.MaxTotalJobs = 16
		cfg.DataDir = t.TempDir()
	})
	ingestTrace(t, nodes[0].ts, "cold", tr)

	hdr, body := getReport(t, nodes[0].ts.URL, "cold", "?window=4h")
	if !bytes.Equal(body, want) {
		t.Errorf("out-of-core windowed scatter differs from single-node in-memory window")
	}
	if hdr.Get("X-Analysis") != "scatter" {
		t.Fatalf("X-Analysis %q, want scatter", hdr.Get("X-Analysis"))
	}
	segs, err := strconv.Atoi(hdr.Get("X-Scan-Segments"))
	if err != nil || segs < 3 {
		t.Errorf("X-Scan-Segments %q: want >= one per shard", hdr.Get("X-Scan-Segments"))
	}
	if hdr.Get("X-Scan-Blocks") == "" {
		t.Errorf("no aggregated X-Scan-Blocks header")
	}
}

// TestClusterStatsAndHealth: /v1/stats grows a cluster section with
// placement and scatter counters, shard replicas land replication×shards
// strong across the fleet, and /healthz flips to degraded once the
// prober notices a dead peer.
func TestClusterStatsAndHealth(t *testing.T) {
	tr := genTrace(t, "CC-b", 7, 30*time.Hour)
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Replication = 2
		cfg.PeerProbeInterval = 25 * time.Millisecond
	})
	ingestTrace(t, nodes[0].ts, "obs", tr)
	getReport(t, nodes[0].ts.URL, "obs", "")

	totalShards := 0
	for i, nd := range nodes {
		var st StatsResponse
		getJSON(t, nd.ts.URL+"/v1/stats", &st)
		if st.Cluster == nil {
			t.Fatalf("node %d: no cluster stats section", i)
		}
		if st.Cluster.NodeID != nd.id || st.Cluster.Size != 3 || st.Cluster.Traces != 1 {
			t.Errorf("node %d cluster stats %+v", i, st.Cluster)
		}
		totalShards += st.Cluster.LocalShards
	}
	if totalShards != 3*2 {
		t.Errorf("total shard replicas %d, want shards*replication = 6", totalShards)
	}
	var st StatsResponse
	getJSON(t, nodes[0].ts.URL+"/v1/stats", &st)
	if st.Cluster.Scatters == 0 {
		t.Errorf("coordinator recorded no scatter")
	}

	var health map[string]any
	getJSON(t, nodes[0].ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz %v with all peers up", health)
	}
	nodes[2].kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, body := fetchRaw(t, nodes[0].ts.URL+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz: %d %s", code, body)
		}
		if strings.Contains(string(body), "degraded") && strings.Contains(string(body), "n2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported n2 down: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDeleteEverywhere: deleting through any node removes the
// metadata on every member and the shard replicas from every store.
func TestClusterDeleteEverywhere(t *testing.T) {
	tr := genTrace(t, "CC-b", 8, 30*time.Hour)
	nodes := newTestCluster(t, 3, nil)
	ingestTrace(t, nodes[0].ts, "gone", tr)

	req, _ := http.NewRequest(http.MethodDelete, nodes[1].ts.URL+"/v1/traces/gone", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	for i, nd := range nodes {
		code, _, _ := fetchRaw(t, nd.ts.URL+"/v1/traces/gone")
		if code != http.StatusNotFound {
			t.Errorf("node %d still serves deleted trace (%d)", i, code)
		}
		for _, info := range nd.srv.Store().List() {
			if strings.HasPrefix(info.Name, shardPrefix) {
				t.Errorf("node %d kept shard replica %s", i, info.Name)
			}
		}
	}
}

// TestClusterWholeTraceModesRejected: synthesis, replay, and full=1
// need the whole trace resident on one node, so a distributed trace
// answers 422 rather than a wrong or partial result.
func TestClusterWholeTraceModesRejected(t *testing.T) {
	tr := genTrace(t, "CC-b", 9, 30*time.Hour)
	nodes := newTestCluster(t, 3, nil)
	ingestTrace(t, nodes[0].ts, "modes", tr)

	for _, path := range []string{
		"/v1/traces/modes/report?full=1",
		"/v1/traces/modes/synth",
		"/v1/traces/modes/replay",
	} {
		code, _, body := fetchRaw(t, nodes[1].ts.URL+path)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("GET %s: %d %s, want 422", path, code, clip(body))
		}
	}
	if _, err := nodes[0].srv.cluster.ingest(t.Context(), shardPrefix+"x/0", emptySource{}); err == nil {
		t.Error("reserved shard name accepted for ingest")
	}
}

// emptySource is a Source with no jobs and no metadata.
type emptySource struct{}

func (emptySource) Meta() trace.Meta          { return trace.Meta{} }
func (emptySource) Next() (*trace.Job, error) { return nil, io.EOF }

// TestClusterRestartRestoresMetadata: a node with a durable backing
// re-registers its distributed traces at startup from the persisted
// metadata documents — no peer round-trip needed.
func TestClusterRestartRestoresMetadata(t *testing.T) {
	tr := genTrace(t, "CC-b", 10, 30*time.Hour)
	dirs := make([]string, 3)
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		dirs[i] = t.TempDir()
		cfg.DataDir = dirs[i]
	})
	ingestTrace(t, nodes[0].ts, "durable", tr)
	_, want := getReport(t, nodes[0].ts.URL, "durable", "")

	// Restart node 0: close it, bring a fresh Server up on the same data
	// directory and the same address (the swap handler keeps the URL).
	peers := make([]string, 3)
	for i, nd := range nodes {
		peers[i] = nd.id + "=" + nd.ts.URL
	}
	if err := nodes[0].srv.Close(); err != nil {
		t.Fatal(err)
	}
	reborn := mustNew(t, Config{
		Peers: strings.Join(peers, ","), NodeID: "n0",
		PeerProbeInterval: -1, DataDir: dirs[0],
	})
	nodes[0].sh.set(reborn.Handler())

	if _, ok := reborn.cluster.get("durable"); !ok {
		t.Fatal("restarted node did not restore cluster metadata from disk")
	}
	_, body := getReport(t, nodes[0].ts.URL, "durable", "")
	if !bytes.Equal(body, want) {
		t.Errorf("post-restart report differs")
	}
}

// BenchmarkClusterReport compares a cold single-node report against a
// cold 3-node scatter/gather of the same trace — the ratio
// BENCH_CLUSTER.json's scatter_overhead gate bars.
func BenchmarkClusterReport(b *testing.B) {
	tr := genTrace(b, "CC-b", 1, 7*24*time.Hour)

	b.Run("single", func(b *testing.B) {
		srv, ts := newTestServer(b)
		info := ingestTrace(b, ts, "bench", tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Cache().InvalidatePrefix(info.Fingerprint + "|")
			_, _ = getReport(b, ts.URL, "bench", "")
		}
	})

	b.Run("scatter", func(b *testing.B) {
		nodes := newTestCluster(b, 3, nil)
		info := ingestTrace(b, nodes[0].ts, "bench", tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Drop the rendered report everywhere (the per-shard aggregates
			// stay warm, as they would on a long-lived cluster) so every
			// iteration pays the scatter, transport, and merge.
			for _, nd := range nodes {
				nd.srv.Cache().InvalidatePrefix(info.Fingerprint + "|")
			}
			_, _ = getReport(b, nodes[0].ts.URL, "bench", "")
		}
	})
}

// TestClusterRequestTracing is the distributed-tracing acceptance bar:
// one X-Request-Id rides a scatter/gather report end to end — echoed to
// the caller, recorded in the coordinator's request ring with
// scatter/shard-fetch/merge spans, and carried across the wire so the
// peers' rings hold their shard-partial requests under the same ID.
// Then, with the peers dead, the failed fetch attempts must land in the
// per-peer error series on /metrics.
func TestClusterRequestTracing(t *testing.T) {
	tr := genTrace(t, "CC-b", 7, 24*time.Hour)
	// Replication 1: every shard has exactly one owner, so the
	// coordinator must fetch non-local shards remotely — which makes the
	// cross-wire ID propagation and, after the kill, the dead-peer
	// failure attempts deterministic instead of replica-placement luck.
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.Replication = 1 })
	ingestTrace(t, nodes[0].ts, "traced", tr)

	req, err := http.NewRequest(http.MethodGet, nodes[0].ts.URL+"/v1/traces/traced/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-e2e-1" {
		t.Fatalf("request id not echoed: %q", got)
	}
	if got := resp.Header.Get("X-Analysis"); got != "scatter" {
		t.Fatalf("X-Analysis %q, want scatter", got)
	}

	// The coordinator's ring entry links the whole scatter under the ID.
	var coord *obs.RequestRecord
	for _, rec := range nodes[0].srv.metrics.ring.Snapshot(0, 0) {
		if rec.ID == "trace-e2e-1" {
			r := rec
			coord = &r
			break
		}
	}
	if coord == nil {
		t.Fatal("coordinator ring has no record for trace-e2e-1")
	}
	if coord.Endpoint != "GET /v1/traces/{name}/report" {
		t.Errorf("coordinator record endpoint %q", coord.Endpoint)
	}
	spans := make(map[string]int)
	for _, sp := range coord.Spans {
		spans[sp.Name]++
	}
	if spans["scatter"] != 1 || spans["merge"] == 0 {
		t.Errorf("coordinator spans %v, want one scatter and a merge", spans)
	}
	if spans["shard-fetch"] != 3 {
		t.Errorf("coordinator shard-fetch spans %d, want one per shard", spans["shard-fetch"])
	}

	// The ID crossed the fleet client: peers recorded their shard-partial
	// requests under it. A peer records a request after its handler
	// returns, which can be after the coordinator has read the whole
	// response, so wait for the record instead of reading the rings once.
	remote := 0
	for deadline := time.Now().Add(5 * time.Second); remote == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, nd := range nodes[1:] {
			for _, rec := range nd.srv.metrics.ring.Snapshot(0, 0) {
				if rec.ID == "trace-e2e-1" && rec.Endpoint == "GET /internal/v1/shards/{name}/{shard}/partial" {
					remote++
				}
			}
		}
	}
	if remote == 0 {
		t.Error("no peer ring entry carries the coordinator's request id")
	}

	// Dead peers: a fresh (uncached) scatter's failed attempts must show
	// up in the per-peer failure series. The answer may be degraded or
	// 502 depending on which shards the coordinator holds locally.
	nodes[1].kill()
	nodes[2].kill()
	// top=7 misses the result cache, forcing a fresh scatter; the shards
	// owned by the dead peers go missing and the answer degrades.
	code, hdr, _ := fetchRaw(t, nodes[0].ts.URL+"/v1/traces/traced/report?top=7")
	if code != http.StatusOK && code != http.StatusBadGateway {
		t.Fatalf("post-kill report: %d", code)
	}
	if code == http.StatusOK {
		if a := hdr.Get("X-Analysis"); a != "degraded" {
			t.Errorf("post-kill X-Analysis %q, want degraded", a)
		}
		if hdr.Get("X-Cluster-Missing-Shards") == "" {
			t.Error("degraded answer lists no missing shards")
		}
	}
	exp := scrapeMetrics(t, nodes[0].ts.URL)
	var failures float64
	for _, s := range exp.Find("swim_cluster_shard_fetch_failures_total") {
		if s.Label("peer") == "" {
			t.Errorf("failure sample missing peer label: %+v", s)
		}
		failures += s.Value
	}
	if failures == 0 {
		t.Error("dead-peer fetch attempts not in swim_cluster_shard_fetch_failures_total")
	}
}
