// Package lz77 provides a hash-chain match finder shared by the LZ4-class,
// Zstd-class, and XZ-class codecs. The window size and chain-search depth
// are the knobs that differentiate those codecs' design points.
package lz77

import (
	"encoding/binary"
	"math/bits"

	"positbench/internal/compress"
)

const (
	// MinMatch is the shortest match the finder reports.
	MinMatch = 4
	hashLog  = 17
	hashSize = 1 << hashLog
)

// Matcher finds back-references in a fixed source buffer using hash chains
// keyed on 4-byte prefixes.
type Matcher struct {
	src    []byte
	window int // maximum match distance
	depth  int // maximum chain positions examined per query
	// head and prev hold positions plus one, so 0, the zero value that
	// make gives, is the empty slot and the end of a chain.
	head []int32
	prev []int32
}

// NewMatcher prepares a matcher over src. window bounds match distances;
// depth bounds the work per position (higher = better matches, slower).
// A window or depth <= 0 selects 1<<16 or 16.
func NewMatcher(src []byte, window, depth int) *Matcher {
	m := new(Matcher)
	m.Reset(src, window, depth)
	return m
}

// Reset re-targets the matcher at a new source buffer, reusing its hash
// tables so steady-state callers (e.g. chunked compressors) allocate only
// when src outgrows every earlier buffer. window and depth are as for
// NewMatcher. An empty src only drops the reference to the previous
// buffer, which is how a pooled matcher lets go of it: the tables are
// cleared by the next Reset that targets data, and until then Insert,
// FindMatch and FindMatches return before reading them.
func (m *Matcher) Reset(src []byte, window, depth int) {
	if window <= 0 {
		window = 1 << 16
	}
	if depth <= 0 {
		depth = 16
	}
	m.src, m.window, m.depth = src, window, depth
	if len(src) == 0 {
		return
	}
	if m.head == nil {
		m.head = make([]int32, hashSize)
	} else {
		clear(m.head)
	}
	if cap(m.prev) < len(src) {
		m.prev = make([]int32, len(src))
	}
	m.prev = m.prev[:len(src)]
}

func hash4(v uint32) uint32 {
	return v * 2654435761 >> (32 - hashLog)
}

func (m *Matcher) load4(pos int) uint32 {
	s := m.src
	return uint32(s[pos]) | uint32(s[pos+1])<<8 | uint32(s[pos+2])<<16 | uint32(s[pos+3])<<24
}

// Insert registers position pos in the hash chains. Positions must be
// inserted in increasing order; querying FindMatch(pos) only considers
// previously inserted positions.
func (m *Matcher) Insert(pos int) {
	if pos+MinMatch > len(m.src) {
		return
	}
	h := hash4(m.load4(pos))
	m.prev[pos] = m.head[h]
	m.head[h] = int32(pos + 1)
}

// FindMatch returns the longest match for the data at pos against earlier
// inserted positions within the window, with maximum length maxLen.
// It returns (0,0) if no match of at least MinMatch exists. Ties prefer
// smaller distances. Chain entries at or past pos are skipped but still
// count against the search depth (see FindMatches).
func (m *Matcher) FindMatch(pos, maxLen int) (dist, length int) {
	if pos+MinMatch > len(m.src) {
		return 0, 0
	}
	if rem := len(m.src) - pos; maxLen > rem {
		maxLen = rem
	}
	cur4 := m.load4(pos)
	h := hash4(cur4)
	cand := m.head[h]
	limit := pos - m.window
	src := m.src
	best := MinMatch - 1
	for tries := m.depth; cand > 0 && int(cand) > limit && tries > 0; tries-- {
		c := int(cand) - 1
		if c >= pos {
			// An entry inserted ahead of the query position is skipped,
			// but the loop's tries-- still charges it to the depth.
			cand = m.prev[c]
			continue
		}
		// Quick rejects: the byte just past the current best must match (or
		// the candidate cannot improve on it), and the 4-byte prefix weeds
		// out hash collisions before the full extension.
		if best < maxLen && src[c+best] == src[pos+best] && m.load4(c) == cur4 {
			l := matchLen(src, c, pos, maxLen)
			if l > best {
				best, dist = l, pos-c
				if l >= maxLen {
					break
				}
			}
		}
		cand = m.prev[c]
	}
	if best < MinMatch {
		return 0, 0
	}
	return dist, best
}

// Match is a (distance, length) back-reference candidate.
type Match struct {
	Dist, Len int
}

// FindMatches appends strictly-lengthening match candidates at pos to dst:
// each entry has the smallest distance seen for its length, and lengths
// increase along the slice. Candidates at or beyond pos are skipped, but
// each one still uses up one of the depth's tries, so a matcher populated
// ahead of the query position searches fewer earlier positions: a chain
// whose first depth entries all lie ahead reports no match at all. The
// XZ-class encoder inserts a whole horizon ahead, and its output depends on
// this accounting.
func (m *Matcher) FindMatches(pos, maxLen int, dst []Match) []Match {
	if pos+MinMatch > len(m.src) {
		return dst
	}
	if rem := len(m.src) - pos; maxLen > rem {
		maxLen = rem
	}
	cur4 := m.load4(pos)
	h := hash4(cur4)
	cand := m.head[h]
	limit := pos - m.window
	src := m.src
	best := MinMatch - 1
	for tries := m.depth; cand > 0 && int(cand) > limit && tries > 0; tries-- {
		c := int(cand) - 1
		if c >= pos {
			cand = m.prev[c]
			continue
		}
		if best < maxLen && src[c+best] == src[pos+best] && m.load4(c) == cur4 {
			l := matchLen(src, c, pos, maxLen)
			if l > best {
				best = l
				dst = append(dst, Match{Dist: pos - c, Len: l})
				if l >= maxLen {
					break
				}
			}
		}
		cand = m.prev[c]
	}
	return dst
}

// InsertRange registers positions [from, to) in increasing order.
func (m *Matcher) InsertRange(from, to int) {
	for i := from; i < to; i++ {
		m.Insert(i)
	}
}

// matchLen counts equal bytes at a and b, up to max. It compares 8 bytes at
// a time with unaligned little-endian loads; the XOR of two equal words is
// zero, and on a mismatch the trailing zero count locates the first
// differing byte. max is clamped so the wide loads stay in bounds even if a
// caller passes a limit past the end of src.
func matchLen(src []byte, a, b, max int) int {
	if a > b {
		a, b = b, a
	}
	if rem := len(src) - b; max > rem {
		max = rem
	}
	n := 0
	for n+8 <= max {
		x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// MatchLen is the exported equal-prefix counter used by codec encoders for
// match extension.
func MatchLen(src []byte, a, b, max int) int { return matchLen(src, a, b, max) }

// AppendMatch copies an LZ back-reference (dist bytes back, mlen bytes long,
// possibly overlapping) onto out, validating the reference against the bytes
// decoded so far and capping the total output at maxOut (maxOut <= 0 means
// unbounded). Every LZ-family decoder in this repository resolves matches
// through this helper so a tampered distance or length becomes a typed error
// instead of an out-of-bounds copy or an unbounded allocation.
func AppendMatch(out []byte, dist, mlen, maxOut int) ([]byte, error) {
	if mlen < 0 {
		return nil, compress.Errorf(compress.ErrCorrupt, "lz77: negative match length %d", mlen)
	}
	if dist <= 0 || dist > len(out) {
		return nil, compress.Errorf(compress.ErrCorrupt, "lz77: match distance %d outside %d decoded bytes", dist, len(out))
	}
	if maxOut > 0 && mlen > maxOut-len(out) {
		return nil, compress.Errorf(compress.ErrLimitExceeded, "lz77: match output exceeds %d bytes", maxOut)
	}
	start := len(out) - dist
	if mlen <= dist {
		// Disjoint source and destination: one bulk copy via append.
		return append(out, out[start:start+mlen]...), nil
	}
	// Overlapping match (dist < mlen): the copy must observe bytes it has
	// just produced (dist=1 repeats a single byte). Grow capacity without a
	// temporary, then double the written region until the match is resolved:
	// each copy's source is fully materialized and disjoint from its
	// destination.
	n := len(out)
	total := n + mlen
	for cap(out) < total {
		out = append(out[:cap(out)], 0)
	}
	out = out[:total]
	for n < total {
		n += copy(out[n:], out[start:n])
	}
	return out, nil
}
