// Package fleet is the peer-to-peer cluster layer that turns swimd into
// a sharded analytics service. It owns the three mechanics every
// distributed handler needs and nothing else:
//
//   - placement: a consistent-hash ring over the member node IDs
//     assigns each trace shard to an ordered list of owner nodes
//     (replication factor R), so every member computes identical
//     placement with no coordination;
//   - transport: one HTTP client per peer with request timeouts,
//     bounded retries with exponential backoff, and latency/failure
//     accounting;
//   - liveness: passive marking (any transport failure downs a peer,
//     any success revives it) plus an optional background prober, so
//     degraded peers are skipped first and /healthz can report the
//     cluster's health.
//
// The serving layer (internal/server) builds the actual protocol on
// top: shard ingest fan-out, scatter/gather report merging over binary
// partial snapshots, and the cluster-aware result cache. fleet stays
// ignorant of traces and partials on purpose — it moves bytes between
// named nodes and says who should own what.
package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Peer names one cluster member: a stable node ID and its base URL.
type Peer struct {
	ID  string
	URL string
}

// ParsePeers parses the swimd -peers flag syntax: a comma-separated
// list of id=url entries, e.g.
//
//	a=http://10.0.0.1:8080,b=http://10.0.0.2:8080,c=http://10.0.0.3:8080
//
// Every member lists the full cluster including itself, in any order;
// placement depends only on the set of IDs, so members agree as long as
// their lists name the same nodes.
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("fleet: bad peer %q (want id=url)", part)
		}
		if strings.ContainsAny(id, "/ \t") {
			return nil, fmt.Errorf("fleet: bad peer id %q (no slashes or spaces)", id)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("fleet: peer %s URL %q is not http(s)", id, url)
		}
		if seen[id] {
			return nil, fmt.Errorf("fleet: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("fleet: empty peer list")
	}
	return peers, nil
}

// Config assembles a Fleet.
type Config struct {
	// NodeID is this process's identity; it must appear in Peers.
	NodeID string
	// Peers is the full membership including self.
	Peers []Peer
	// Replication is how many owners each shard is placed on (clamped
	// to the cluster size; zero: DefaultReplication).
	Replication int
	// Timeout bounds one peer request attempt (zero: DefaultTimeout).
	Timeout time.Duration
	// Retries is the attempt budget per request (zero:
	// DefaultRetries; 1 = no retry).
	Retries int
	// Backoff is the first retry delay; it doubles per attempt (zero:
	// DefaultBackoff).
	Backoff time.Duration
	// ProbeInterval spaces the background liveness probes (zero:
	// DefaultProbeInterval; negative: probing disabled — liveness then
	// comes from passive marking only, which tests rely on).
	ProbeInterval time.Duration
}

// Defaults for the Config knobs.
const (
	DefaultReplication   = 2
	DefaultTimeout       = 10 * time.Second
	DefaultRetries       = 3
	DefaultBackoff       = 50 * time.Millisecond
	DefaultProbeInterval = 5 * time.Second
)

// Fleet is one node's view of the cluster: membership, placement, and
// a transport per remote peer. All methods are safe for concurrent use.
type Fleet struct {
	self        string
	peers       []Peer // sorted by ID for deterministic listings
	ring        *ring
	clients     map[string]*Client // remote peers only
	replication int

	monitor *monitor
	counters
}

// New validates the membership and assembles the node's fleet handle.
// Call Start to begin background probing and Close to stop it.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("fleet: empty peer list")
	}
	peers := append([]Peer(nil), cfg.Peers...)
	sort.Slice(peers, func(i, k int) bool { return peers[i].ID < peers[k].ID })
	ids := make([]string, len(peers))
	selfOK := false
	for i, p := range peers {
		ids[i] = p.ID
		if p.ID == cfg.NodeID {
			selfOK = true
		}
	}
	if !selfOK {
		return nil, fmt.Errorf("fleet: node id %q is not in the peer list %v", cfg.NodeID, ids)
	}
	replication := cfg.Replication
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > len(peers) {
		replication = len(peers)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	retries := cfg.Retries
	if retries <= 0 {
		retries = DefaultRetries
	}
	backoff := cfg.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	f := &Fleet{
		self:        cfg.NodeID,
		peers:       peers,
		ring:        newRing(ids),
		clients:     make(map[string]*Client),
		replication: replication,
	}
	for _, p := range peers {
		if p.ID == cfg.NodeID {
			continue
		}
		f.clients[p.ID] = newClient(p.ID, p.URL, timeout, retries, backoff)
	}
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = DefaultProbeInterval
	}
	if interval > 0 {
		f.monitor = newMonitor(f.clients, interval)
	}
	return f, nil
}

// Start launches the background liveness prober (a no-op when probing
// is disabled or already started).
func (f *Fleet) Start() {
	if f.monitor != nil {
		f.monitor.start()
	}
}

// Close stops the background prober. The fleet remains usable for
// requests (Close is about goroutine hygiene at shutdown).
func (f *Fleet) Close() {
	if f.monitor != nil {
		f.monitor.stop()
	}
}

// Self returns this node's ID.
func (f *Fleet) Self() string { return f.self }

// Members returns the full membership including self, sorted by ID.
func (f *Fleet) Members() []Peer { return append([]Peer(nil), f.peers...) }

// IsSelf reports whether id names this node.
func (f *Fleet) IsSelf(id string) bool { return id == f.self }

// Size returns the cluster membership count (including self).
func (f *Fleet) Size() int { return len(f.peers) }

// Replication returns the effective replication factor.
func (f *Fleet) Replication() int { return f.replication }

// Owners returns the n distinct nodes that own key, in ring order. The
// first owner is the key's home node. n is clamped to the cluster size.
func (f *Fleet) Owners(key string, n int) []string {
	return f.ring.owners(key, n)
}

// Home returns the key's first ring owner — the node that serializes
// writes for it.
func (f *Fleet) Home(key string) string { return f.ring.owners(key, 1)[0] }

// Client returns the transport for a remote peer, or nil for self and
// unknown IDs.
func (f *Fleet) Client(id string) *Client { return f.clients[id] }

// Alive reports the peer's last-known liveness. Self is always alive;
// unknown IDs are dead.
func (f *Fleet) Alive(id string) bool {
	if id == f.self {
		return true
	}
	c, ok := f.clients[id]
	return ok && c.Alive()
}

// Down lists the remote peers currently marked unreachable, sorted.
func (f *Fleet) Down() []string {
	var down []string
	for id, c := range f.clients {
		if !c.Alive() {
			down = append(down, id)
		}
	}
	sort.Strings(down)
	return down
}

// SortByLiveness orders node IDs so live ones come first, preserving
// the relative order within each class — the owner-preference order for
// shard fetches: replicas marked down are still tried, but last.
func (f *Fleet) SortByLiveness(ids []string) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if f.Alive(id) {
			out = append(out, id)
		}
	}
	for _, id := range ids {
		if !f.Alive(id) {
			out = append(out, id)
		}
	}
	return out
}

// PeerStats is one peer's transport and liveness counters.
type PeerStats struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// Alive is the last-known reachability (self is always alive).
	Alive bool `json:"alive"`
	// Requests / Retries / Failures count transport attempts to this
	// peer; LatencyMS is an exponentially weighted moving average over
	// successful requests.
	Requests  uint64  `json:"requests,omitempty"`
	Retries   uint64  `json:"retries,omitempty"`
	Failures  uint64  `json:"failures,omitempty"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// Stats is the fleet's cluster section of /v1/stats.
type Stats struct {
	NodeID      string      `json:"node_id"`
	Size        int         `json:"size"`
	Replication int         `json:"replication"`
	Shards      int         `json:"default_shards"` // a new trace's: one per member
	Peers       []PeerStats `json:"peers"`
	// Scatters counts scatter/gather reports coordinated by this node;
	// ShardFetches/ShardFailures count remote shard-partial requests;
	// Merges counts shard partials merged into coordinated reports;
	// Degraded counts reports served with missing shards;
	// RemoteCacheHits counts warm results served from a peer's cache;
	// MetaBroadcasts counts cluster-metadata pushes to peers.
	Scatters        uint64 `json:"scatters"`
	ShardFetches    uint64 `json:"shard_fetches"`
	ShardFailures   uint64 `json:"shard_failures"`
	Merges          uint64 `json:"merges"`
	Degraded        uint64 `json:"degraded"`
	RemoteCacheHits uint64 `json:"remote_cache_hits"`
	MetaBroadcasts  uint64 `json:"meta_broadcasts"`
}

// counters are the fleet-wide protocol counters, bumped by the serving
// layer as it coordinates cluster work.
type counters struct {
	scatters        atomic.Uint64
	shardFetches    atomic.Uint64
	shardFailures   atomic.Uint64
	merges          atomic.Uint64
	degraded        atomic.Uint64
	remoteCacheHits atomic.Uint64
	metaBroadcasts  atomic.Uint64
}

// AddScatter counts one coordinated scatter/gather report.
func (f *Fleet) AddScatter() { f.scatters.Add(1) }

// AddShardFetch counts one remote shard-partial request attempt chain.
func (f *Fleet) AddShardFetch() { f.shardFetches.Add(1) }

// AddShardFailure counts one shard-partial request that exhausted every
// replica.
func (f *Fleet) AddShardFailure() { f.shardFailures.Add(1) }

// AddMerges counts n shard partials merged into a coordinated report.
func (f *Fleet) AddMerges(n int) { f.merges.Add(uint64(n)) }

// AddDegraded counts one report served with missing shards.
func (f *Fleet) AddDegraded() { f.degraded.Add(1) }

// AddRemoteCacheHit counts one warm result served from a peer's cache.
func (f *Fleet) AddRemoteCacheHit() { f.remoteCacheHits.Add(1) }

// AddMetaBroadcast counts one cluster-metadata push to the peers.
func (f *Fleet) AddMetaBroadcast() { f.metaBroadcasts.Add(1) }

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	st := Stats{
		NodeID:          f.self,
		Size:            len(f.peers),
		Replication:     f.replication,
		Shards:          len(f.peers),
		Scatters:        f.scatters.Load(),
		ShardFetches:    f.shardFetches.Load(),
		ShardFailures:   f.shardFailures.Load(),
		Merges:          f.merges.Load(),
		Degraded:        f.degraded.Load(),
		RemoteCacheHits: f.remoteCacheHits.Load(),
		MetaBroadcasts:  f.metaBroadcasts.Load(),
	}
	for _, p := range f.peers {
		ps := PeerStats{ID: p.ID, URL: p.URL}
		if p.ID == f.self {
			ps.Self, ps.Alive = true, true
		} else {
			c := f.clients[p.ID]
			ps.Alive = c.Alive()
			ps.Requests, ps.Retries, ps.Failures = c.counts()
			ps.LatencyMS = c.latencyMS()
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
