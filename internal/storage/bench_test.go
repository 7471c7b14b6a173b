package storage

import (
	"context"
	"fmt"
	"testing"

	"cloudviews/internal/data"
)

// benchParts builds a view payload shaped like real materialized views: a
// sorted int key, a run-heavy date, a low-cardinality dimension string, a
// float measure, a bool flag — spread over nparts partitions.
func benchParts(nparts, rowsPer int) [][]data.Row {
	words := []string{"store", "web", "catalog", "outlet", "kiosk", "phone", "mail", "partner"}
	parts := make([][]data.Row, nparts)
	for p := range parts {
		rows := make([]data.Row, rowsPer)
		for i := range rows {
			k := p*rowsPer + i
			rows[i] = data.Row{
				data.Int(int64(1_000_000 + k*3)),
				data.Date(int64(17000 + k/32)),
				data.String_(words[k%len(words)]),
				data.Float(float64(k%977) + 0.25),
				data.Bool(k%3 == 0),
			}
		}
		parts[p] = rows
	}
	return parts
}

func logicalSize(parts [][]data.Row) int64 {
	var n int64
	for _, p := range parts {
		for _, r := range p {
			n += r.ByteSize()
		}
	}
	return n
}

// BenchmarkStorageWrite measures the producer path — parallel columnar
// encode plus checksum plus install — in MB/s of row data consumed, and
// reports the at-rest compression as row-bytes per encoded byte ("ratio";
// the seed's boxed-row store was 1.0 by construction).
func BenchmarkStorageWrite(b *testing.B) {
	for _, nparts := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("parts=%d", nparts), func(b *testing.B) {
			parts := benchParts(nparts, 2048)
			b.SetBytes(logicalSize(parts))
			b.ResetTimer()
			var last *View
			for i := 0; i < b.N; i++ {
				s := NewStore()
				v := mkView(fmt.Sprintf("w%d", i), 100)
				if _, err := s.WriteCtx(context.Background(), v, parts); err != nil {
					b.Fatal(err)
				}
				last = v
			}
			b.ReportMetric(float64(last.LogicalBytes)/float64(last.Bytes), "ratio")
		})
	}
}

// BenchmarkStorageConsumeCold measures a first consume: checksum walk over
// the encoded payload plus parallel decode (cache disabled so every
// iteration is cold).
func BenchmarkStorageConsumeCold(b *testing.B) {
	for _, nparts := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("parts=%d", nparts), func(b *testing.B) {
			s := NewStore()
			s.SetCacheBudget(-1)
			parts := benchParts(nparts, 2048)
			v := mkView("cold", 100)
			if _, err := s.WriteCtx(context.Background(), v, parts); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(logicalSize(parts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorageConsumeHot measures a repeat consume served from the
// decoded hot-view cache — the zero-copy fast path recurring jobs hit.
func BenchmarkStorageConsumeHot(b *testing.B) {
	for _, nparts := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("parts=%d", nparts), func(b *testing.B) {
			s := NewStore()
			parts := benchParts(nparts, 2048)
			v := mkView("hot", 100)
			if _, err := s.WriteCtx(context.Background(), v, parts); err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
				b.Fatal(err) // warm the cache
			}
			b.SetBytes(logicalSize(parts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.ConsumeCtx(context.Background(), v.Path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
