package miner

import (
	"path/filepath"
	"testing"

	"optrule/internal/datagen"
	"optrule/internal/relation"
)

// benchTuples sizes the bank workload (3 numeric × 3 Boolean). 1M
// tuples keeps the scan cost — the term the fused engine collapses —
// dominant over the fixed per-attribute CPU (sample sorts, hulls), as
// in the paper's out-of-core regime.
const benchTuples = 1000000

// benchMemRelation builds the bank workload in memory; benchDiskRelation
// builds it on disk. Split so each benchmark pays only for the relation
// it measures (the setup reruns for every b.N probe).
func benchMemRelation(b *testing.B) *relation.MemoryRelation {
	b.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	mem, err := datagen.Materialize(bank, benchTuples, 1)
	if err != nil {
		b.Fatal(err)
	}
	return mem
}

func benchDiskRelation(b *testing.B) *relation.DiskRelation {
	b.Helper()
	bank, err := datagen.NewBank(datagen.BankConfig{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bank.opr")
	if err := datagen.WriteDisk(path, bank, benchTuples, 1); err != nil {
		b.Fatal(err)
	}
	disk, err := relation.OpenDisk(path)
	if err != nil {
		b.Fatal(err)
	}
	return disk
}

func BenchmarkMineAllFusedMemory(b *testing.B) {
	mem := benchMemRelation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineAll(mem, Config{Buckets: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineAllFusedDisk(b *testing.B) {
	disk := benchDiskRelation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineAll(disk, Config{Buckets: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
