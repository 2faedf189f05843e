package storage

import (
	"fmt"
	"testing"
)

func benchObjectWithVersions(n int) *Object {
	o := newObject()
	for i := 1; i <= n; i++ {
		o.InstallCommitted(Version{TN: uint64(i), Data: []byte("v")})
	}
	return o
}

func BenchmarkReadVisible(b *testing.B) {
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			o := benchObjectWithVersions(depth)
			sn := uint64(depth/2 + 1) // depth=1: version 1 itself
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := o.ReadVisible(sn); !ok {
					b.Fatal("missing version")
				}
			}
		})
	}
}

func BenchmarkInstallCommittedAppend(b *testing.B) {
	o := newObject()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.InstallCommitted(Version{TN: uint64(i + 1)})
	}
}

func BenchmarkTOReadWrite(b *testing.B) {
	o := newObject()
	o.InstallCommitted(Version{TN: 0})
	b.ReportAllocs()
	tn := uint64(1)
	for i := 0; i < b.N; i++ {
		if err := o.TOWrite(tn, []byte("v"), false); err != nil {
			b.Fatal(err)
		}
		o.ResolvePending(tn, true, nil)
		if _, ok := o.TORead(tn); !ok {
			b.Fatal("read miss")
		}
		tn++
	}
}

func BenchmarkStoreGetOrCreate(b *testing.B) {
	s := NewStore(0)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
		s.Bootstrap(keys[i], nil)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.GetOrCreate(keys[i&1023])
			i++
		}
	})
}

func BenchmarkPrune(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := benchObjectWithVersions(128)
		b.StartTimer()
		o.Prune(100)
	}
}
