package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/network"
)

// Input streams: each purpose draws circuit seeds from its own stream,
// so changing one workload's input count never shifts another's inputs.
const (
	streamLibrary uint64 = iota + 1
	streamCold
	streamHotSet
	streamHotFresh
	streamClient
	streamSample
)

// libraryFamilies are interleaved in the library workloads' circuit
// set. With three equally sized bands (about 10, 30 and 300 ms per
// call) the median falls inside the dalu band and p90 inside the des
// band; a fourth family put the median on a band edge, where it swung
// by 20% between runs.
var libraryFamilies = []string{"misex3", "dalu", "des"}

// mix is splitmix64's finalizer over (seed, stream, i): every input is
// a pure function of the run seed.
func mix(seed int64, stream uint64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// circuitSeed is the generator seed of circuit i of a stream.
func circuitSeed(seed int64, stream uint64, i int) int64 {
	return int64(mix(seed, stream, i) >> 1)
}

// generate builds a circuit of the named spec family under a new seed.
func generate(family string, seed int64) *network.Network {
	spec, ok := gen.SpecOf(family)
	if !ok {
		panic("e2ebench: unknown circuit family " + family)
	}
	spec.Seed = seed
	return gen.Generate(spec)
}

// librarySet generates the library workloads' circuit set: n circuits
// per family, interleaved.
func librarySet(seed int64, n int) []*network.Network {
	set := make([]*network.Network, 0, n*len(libraryFamilies))
	for i := 0; i < n*len(libraryFamilies); i++ {
		fam := libraryFamilies[i%len(libraryFamilies)]
		set = append(set, generate(fam, circuitSeed(seed, streamLibrary, i)))
	}
	return set
}

// blifText serializes a network; the service workloads submit only
// this text.
func blifText(nw *network.Network) string {
	var sb strings.Builder
	if err := blif.Write(&sb, nw); err != nil {
		// A strings.Builder never fails to write.
		panic(err)
	}
	return sb.String()
}

// digest hashes a sequence of circuit texts.
func digest(texts []string) string {
	h := sha256.New()
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sampled reports whether input i belongs to the seeded 1-in-every
// sample that the output checks cover.
func sampled(seed int64, i, every int) bool {
	return mix(seed, streamSample, i)%uint64(every) == 0
}
