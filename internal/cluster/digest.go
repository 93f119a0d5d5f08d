package cluster

// Stable fingerprinting of a testbed Config, used by the harness's
// content-addressed leaf cache to key simulations by their inputs. Every
// field — including every nested simulator config — folds into its own
// FNV-1a stream seeded by a dotted field path, and the streams XOR-combine,
// so the digest is independent of fold order but sensitive to every value.
// A field added to Config is invisible here until it gets its own line in
// Digest (TestConfigDigest fails until then); adding that line changes all
// digests, which is the invalidation a new input dimension requires. The
// digest addresses *inputs* only: it cannot see simulator code changes (see
// harness cacheSchema for that).

import "iotaxo/internal/fnvhash"

// Digest returns a stable, field-order-independent fingerprint of the full
// testbed configuration, nested simulator configs included. Equal configs
// always produce equal digests across processes.
func (cfg Config) Digest() uint64 {
	f := func(name string) uint64 { return fnvhash.String(fnvhash.Offset64, name) }
	var d uint64
	d ^= fnvhash.Int64(f("ComputeNodes"), int64(cfg.ComputeNodes))
	d ^= fnvhash.Int64(f("RanksPerNode"), int64(cfg.RanksPerNode))
	d ^= fnvhash.Int64(f("TotalRanks"), int64(cfg.TotalRanks))
	d ^= fnvhash.Float64(f("Net.BandwidthBps"), cfg.Net.BandwidthBps)
	d ^= fnvhash.Int64(f("Net.Latency"), int64(cfg.Net.Latency))
	d ^= fnvhash.Int64(f("Net.FrameOverhead"), cfg.Net.FrameOverhead)
	d ^= fnvhash.Int64(f("Net.PerMessageCPU"), int64(cfg.Net.PerMessageCPU))
	d ^= fnvhash.String(f("PFS.Name"), cfg.PFS.Name)
	d ^= fnvhash.Int64(f("PFS.Servers"), int64(cfg.PFS.Servers))
	d ^= fnvhash.Int64(f("PFS.StripeUnit"), cfg.PFS.StripeUnit)
	d ^= fnvhash.Int64(f("PFS.Array.Disks"), int64(cfg.PFS.Array.Disks))
	d ^= fnvhash.Int64(f("PFS.Array.StripeUnit"), cfg.PFS.Array.StripeUnit)
	d ^= fnvhash.Int64(f("PFS.Array.Disk.PerOp"), int64(cfg.PFS.Array.Disk.PerOp))
	d ^= fnvhash.Int64(f("PFS.Array.Disk.Seek"), int64(cfg.PFS.Array.Disk.Seek))
	d ^= fnvhash.Float64(f("PFS.Array.Disk.BandwidthBps"), cfg.PFS.Array.Disk.BandwidthBps)
	d ^= fnvhash.Bool(f("PFS.Array.DisableSmallWritePenalty"), cfg.PFS.Array.DisableSmallWritePenalty)
	d ^= fnvhash.Int64(f("PFS.ServerProcs"), int64(cfg.PFS.ServerProcs))
	d ^= fnvhash.Bool(f("PFS.Stackable"), cfg.PFS.Stackable)
	d ^= fnvhash.Int64(f("PFS.MetaCost"), int64(cfg.PFS.MetaCost))
	d ^= fnvhash.Int64(f("Kernel.SyscallCost"), int64(cfg.Kernel.SyscallCost))
	d ^= fnvhash.Int64(f("LocalDisk.PerOp"), int64(cfg.LocalDisk.PerOp))
	d ^= fnvhash.Int64(f("LocalDisk.Seek"), int64(cfg.LocalDisk.Seek))
	d ^= fnvhash.Float64(f("LocalDisk.BandwidthBps"), cfg.LocalDisk.BandwidthBps)
	d ^= fnvhash.Int64(f("MaxSkew"), int64(cfg.MaxSkew))
	d ^= fnvhash.Float64(f("MaxDrift"), cfg.MaxDrift)
	d ^= fnvhash.Int64(f("Seed"), cfg.Seed)
	return d
}
