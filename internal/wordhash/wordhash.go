// Package wordhash is the repository's shared raw-coordinate hasher:
// FNV-1a over int64 words, finalized with the Murmur3 avalanche so that
// low-entropy inputs (small counts in few coordinates) still spread over
// all 64 bits. The antichain's duplicate filter and the Diophantine
// solver's candidate-dedup set both key their open-addressing tables with
// it — one implementation, so the mixing can only ever change in one
// place. (The reachability core's node index uses its own linear hash,
// which it updates per transition instead of rehashing each successor.)
package wordhash

// Sum hashes the int64 words of a vector.
func Sum(w []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range w {
		h ^= uint64(x)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
