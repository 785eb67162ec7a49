package main

import (
	"bytes"
	"fmt"
	"sort"
)

// model is the benchmark's reference for what the database must answer.
// It is kept apart from the program: it holds key → latest document and,
// for every indexed attribute value, the writes that carried it in write
// order. Answers follow the paper's semantics (Table 1): GET returns the
// latest document; LOOKUP and RANGELOOKUP return the K records whose
// current value matches, newest write first.
type model struct {
	docs  map[string][]byte // key → latest document
	last  map[string]int64  // key → position of its latest write
	pos   int64             // writes applied so far
	attrs map[string]*attrIndex

	ingestBytes int64 // Σ len(key)+len(doc) over every write
	liveBytes   int64 // Σ len(key)+len(doc) over the latest documents
}

// attrIndex holds one attribute's postings: value → writes in write order,
// plus the distinct values sorted for range predicates.
type attrIndex struct {
	post   map[string][]posting
	values []string
}

type posting struct {
	key string
	pos int64
}

// want is one expected LOOKUP/RANGELOOKUP result.
type want struct {
	Key string
	Doc []byte
}

func newModel(attrs ...string) *model {
	m := &model{docs: map[string][]byte{}, last: map[string]int64{}, attrs: map[string]*attrIndex{}}
	for _, a := range attrs {
		m.attrs[a] = &attrIndex{post: map[string][]posting{}}
	}
	return m
}

// put applies one write; vals gives the document's value for each indexed
// attribute (the generator knows them, so the model parses no JSON).
func (m *model) put(key string, doc []byte, vals map[string]string) {
	m.pos++
	if old, ok := m.docs[key]; ok {
		m.liveBytes -= int64(len(key) + len(old))
	}
	m.docs[key] = doc
	m.last[key] = m.pos
	m.liveBytes += int64(len(key) + len(doc))
	m.ingestBytes += int64(len(key) + len(doc))
	for a, v := range vals {
		ai := m.attrs[a]
		if ai == nil {
			continue
		}
		if _, seen := ai.post[v]; !seen {
			i := sort.SearchStrings(ai.values, v)
			ai.values = append(ai.values, "")
			copy(ai.values[i+1:], ai.values[i:])
			ai.values[i] = v
		}
		ai.post[v] = append(ai.post[v], posting{key: key, pos: m.pos})
	}
}

func (m *model) get(key string) ([]byte, bool) {
	d, ok := m.docs[key]
	return d, ok
}

// lookup returns the k newest records whose attr equals v.
func (m *model) lookup(attr, v string, k int) []want {
	return m.rangeLookup(attr, v, v, k)
}

// rangeLookup returns the k newest records whose attr lies in [lo, hi].
// A posting is live only if it is its key's latest write: an older write
// of the key is a stale version, whatever value it carried.
func (m *model) rangeLookup(attr, lo, hi string, k int) []want {
	ai := m.attrs[attr]
	if ai == nil {
		return nil
	}
	var cand []posting
	for i := sort.SearchStrings(ai.values, lo); i < len(ai.values) && ai.values[i] <= hi; i++ {
		list := ai.post[ai.values[i]]
		n := 0
		for j := len(list) - 1; j >= 0 && (k <= 0 || n < k); j-- {
			if m.last[list[j].key] == list[j].pos {
				cand = append(cand, list[j])
				n++
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].pos > cand[j].pos })
	if k > 0 && len(cand) > k {
		cand = cand[:k]
	}
	out := make([]want, len(cand))
	for i, p := range cand {
		out[i] = want{Key: p.key, Doc: m.docs[p.key]}
	}
	return out
}

// checkEntries compares one LOOKUP/RANGELOOKUP answer with the model's:
// the same keys, in the same newest-first order, each with its latest
// document. keyAt and docAt read the i-th returned entry, so the check
// serves both core.Entry slices and decoded HTTP bodies.
func checkEntries(exp []want, n int, keyAt func(int) string, docAt func(int) []byte) error {
	for i := 0; i < len(exp) && i < n; i++ {
		if got := keyAt(i); got != exp[i].Key {
			return fmt.Errorf("result %d: key %q, want %q", i, got, exp[i].Key)
		}
		if got := docAt(i); !bytes.Equal(got, exp[i].Doc) {
			return fmt.Errorf("result %d (%s): document %.60q, want %.60q", i, exp[i].Key, got, exp[i].Doc)
		}
	}
	if n != len(exp) {
		return fmt.Errorf("%d results, want %d", n, len(exp))
	}
	return nil
}

// checkDoc compares one GET answer with the model's.
func checkDoc(key string, exp, got []byte, found bool) error {
	if !found {
		return fmt.Errorf("get %q: not found", key)
	}
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("get %q: document %.60q, want %.60q", key, got, exp)
	}
	return nil
}
