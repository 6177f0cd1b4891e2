package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/mmu"
	"mnpusim/internal/model"
	"mnpusim/internal/npu"
)

// canonicalConfig mirrors the Config fields that determine the Result.
// Observation hooks (Obs, Metrics, HostProf) are excluded
// because observation never alters execution — two configs differing
// only in those fields share one cache slot. Field order is fixed:
// encoding/json emits struct fields in declaration order, so the
// canonical bytes are deterministic. Cycle fields are stored as raw
// int64 so the canonical bytes are identical to the pre-typed-clock
// encoding.
type canonicalConfig struct {
	Arch                []npu.ArchConfig
	Nets                []model.Network
	Sharing             Sharing
	DRAM                dram.Config
	PageSize            mmu.PageSize
	WalkLevels          int
	TLBEntriesPerCore   int
	TLBAssoc            int
	PTWPerCore          int
	WalkLatencyPerLevel int
	TLBPorts            int
	MaxPendingWalks     int
	NoTranslation       bool
	DRAMBackedWalks     bool
	ChannelPartition    [][]int
	WalkerMin           []int
	WalkerMax           []int
	DWSWalkerStealing   bool
	PhysBytesPerCore    uint64
	StartCycles         []int64
	MaxGlobalCycles     int64
}

// CanonicalJSON returns a deterministic byte encoding of every
// result-determining field of the config. Two configs with equal
// canonical bytes produce bit-identical Results.
func (c Config) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(canonicalConfig{
		Arch:                c.Arch,
		Nets:                c.Nets,
		Sharing:             c.Sharing,
		DRAM:                c.DRAM,
		PageSize:            c.PageSize,
		WalkLevels:          c.WalkLevels,
		TLBEntriesPerCore:   c.TLBEntriesPerCore,
		TLBAssoc:            c.TLBAssoc,
		PTWPerCore:          c.PTWPerCore,
		WalkLatencyPerLevel: c.WalkLatencyPerLevel,
		TLBPorts:            c.TLBPorts,
		MaxPendingWalks:     c.MaxPendingWalks,
		NoTranslation:       c.NoTranslation,
		DRAMBackedWalks:     c.DRAMBackedWalks,
		ChannelPartition:    c.ChannelPartition,
		WalkerMin:           c.WalkerMin,
		WalkerMax:           c.WalkerMax,
		DWSWalkerStealing:   c.DWSWalkerStealing,
		PhysBytesPerCore:    c.PhysBytesPerCore,
		StartCycles:         rawCycles(c.StartCycles),
		MaxGlobalCycles:     c.MaxGlobalCycles.Int64(),
	})
	if err != nil {
		return nil, fmt.Errorf("sim: canonicalize config: %w", err)
	}
	return b, nil
}

// rawCycles strips the clock typing for canonical encoding, preserving
// nil so the canonical JSON distinguishes "unset" from "all zero".
func rawCycles(cs []clock.Global) []int64 {
	if cs == nil {
		return nil
	}
	raw := make([]int64, len(cs))
	for i, c := range cs {
		raw[i] = c.Int64()
	}
	return raw
}

// Fingerprint returns the content address of the config: the hex SHA-256
// of its canonical JSON. It is the cache key used by the simulation
// service's result cache.
func (c Config) Fingerprint() (string, error) {
	b, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
