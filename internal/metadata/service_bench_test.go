package metadata

import (
	"fmt"
	"testing"
)

// benchService loads a realistically sized annotation set: 200 selected
// views spread over 40 input tags plus one template tag each, the shape a
// warmed production metadata service serves.
func benchService() *Service {
	s := NewService()
	anns := make([]Annotation, 0, 200)
	for i := 0; i < 200; i++ {
		anns = append(anns, Annotation{
			NormSig:    fmt.Sprintf("norm-%03d", i),
			Tags:       []string{fmt.Sprintf("input-%d", i%40), fmt.Sprintf("template-%d", i)},
			AvgRuntime: float64(i + 1),
		})
	}
	s.LoadAnalysis(anns)
	return s
}

// BenchmarkMetadataLookupParallel measures TryRelevantViews under concurrent
// submission: every job in a batch performs one lookup, so the call must
// scale with GOMAXPROCS instead of serializing on the service mutex.
func BenchmarkMetadataLookupParallel(b *testing.B) {
	s := benchService()
	tags := []string{"input-7", "template-3", "input-21"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if got, err := s.TryRelevantViews("vc1", tags); err != nil || len(got) == 0 {
				b.Fatal("lookup returned nothing")
			}
		}
	})
}

// BenchmarkMetadataLookupSerial is the single-goroutine reference point for
// the parallel benchmark's scaling.
func BenchmarkMetadataLookupSerial(b *testing.B) {
	s := benchService()
	tags := []string{"input-7", "template-3", "input-21"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got, err := s.TryRelevantViews("vc1", tags); err != nil || len(got) == 0 {
			b.Fatal("lookup returned nothing")
		}
	}
}
