package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Cluster shard-ownership metadata. A clustered swimd stores, for each
// distributed trace, a small JSON document describing how the trace is
// split and owned: shard count, replication factor, fingerprint, and
// the serialized fingerprint-hasher state appends extend. The document
// is opaque to this package — the serving layer defines its schema —
// but its durability contract is storage's: one file per trace under
// <root>/cluster/, written atomically (tmp + fsync + rename + dir
// fsync), so a crash leaves either the old version or the new one and
// recovery on restart re-registers every distributed trace this node
// coordinates or replicates.
//
// The files live beside the traces/ tree, not inside any trace
// directory, because one cluster trace maps to several locally stored
// shard traces (one per owned shard) and to none at all on nodes that
// only coordinate.

// clusterDir is the directory holding one metadata file per cluster
// trace, named by the same injective encoding trace directories use.
func (s *Store) clusterDir() string { return filepath.Join(s.root, "cluster") }

// SaveCluster atomically persists the metadata document for a cluster
// trace, replacing any previous version.
func (s *Store) SaveCluster(name string, doc []byte) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	enc, err := encodeName(name)
	if err != nil {
		return err
	}
	dir := s.clusterDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: creating cluster dir: %w", err)
	}
	if err := replaceFileSync(filepath.Join(dir, enc+".json"), doc); err != nil {
		return fmt.Errorf("storage: saving cluster meta %q: %w", name, err)
	}
	return nil
}

// DeleteCluster removes a cluster trace's metadata. Deleting an absent
// document is not an error.
func (s *Store) DeleteCluster(name string) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	enc, err := encodeName(name)
	if err != nil {
		return err
	}
	path := filepath.Join(s.clusterDir(), enc+".json")
	if err := os.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("storage: deleting cluster meta %q: %w", name, err)
	}
	return syncDir(s.clusterDir())
}

// ClusterMeta pairs a cluster trace's name with its persisted document.
type ClusterMeta struct {
	Name string
	Doc  []byte
}

// LoadClusters reads every persisted cluster metadata document (in
// encoded-filename order). Stale tmp files from a crashed save are removed; a document
// that is not valid JSON is skipped (and removed) rather than poisoning
// startup — the coordinator can refetch metadata from its peers.
func (s *Store) LoadClusters() ([]ClusterMeta, error) {
	dir := s.clusterDir()
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading cluster dir: %w", err)
	}
	var out []ClusterMeta
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		if strings.HasSuffix(ent.Name(), ".tmp") {
			_ = os.Remove(path)
			continue
		}
		enc, ok := strings.CutSuffix(ent.Name(), ".json")
		if !ok {
			continue
		}
		name, err := decodeName(enc)
		if err != nil {
			_ = os.Remove(path)
			continue
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("storage: reading cluster meta %q: %w", name, err)
		}
		if !json.Valid(doc) {
			_ = os.Remove(path)
			continue
		}
		out = append(out, ClusterMeta{Name: name, Doc: doc})
	}
	return out, nil
}
