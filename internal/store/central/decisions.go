package central

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"orchestra/internal/codec"
	"orchestra/internal/core"
)

// A decision row holds a batch of one peer's decisions: every decision a
// commit records for that peer in one epoch-shard, in dseq order. Its key
// is (peer, first_dseq), first_dseq being the dseq of the first entry when
// the row is written, and its payload is the entries back to back:
//
//	origin  uvarint length, bytes
//	seq     uvarint
//	d       one byte, core.DecisionAccept or core.DecisionReject
//	delta   uvarint: this entry's dseq minus the previous entry's
//	        (first_dseq for the first entry)
//
// A compaction rewrite keeps the row's key, so its surviving first entry
// may carry a non-zero delta. One id may appear in several entries, of one
// row or of several: the entry with the highest dseq is the peer's
// decision.

// decisionEntry is one decision of a decision row.
type decisionEntry struct {
	id   core.TxnID
	d    core.Decision
	dseq int64
}

// appendDecisionEntry appends one entry whose dseq is delta past the
// previous entry's.
func appendDecisionEntry(dst []byte, id core.TxnID, d core.Decision, delta int64) []byte {
	dst = codec.AppendStr(dst, string(id.Origin))
	dst = binary.AppendUvarint(dst, id.Seq)
	dst = append(dst, byte(d))
	return binary.AppendUvarint(dst, uint64(delta))
}

// appendDecisionRow appends the payload of a row keyed by first whose
// entries are es, in ascending dseq order from first.
func appendDecisionRow(dst []byte, first int64, es []decisionEntry) []byte {
	prev := first
	for _, e := range es {
		dst = appendDecisionEntry(dst, e.id, e.d, e.dseq-prev)
		prev = e.dseq
	}
	return dst
}

// decodeDecisionRow decodes the payload of a row keyed by first. Origins
// are substrings of payload, not copies, as core.DecodeTuple's strings
// are. Decoding is canonical: what it accepts re-encodes to payload
// exactly, and an empty payload — a row a compaction would have deleted —
// is refused.
func decodeDecisionRow(first int64, payload string) ([]decisionEntry, error) {
	if payload == "" {
		return nil, errors.New("decision row: empty")
	}
	r := codec.NewReader([]byte(payload))
	var out []decisionEntry
	prev := first
	for r.Len() > 0 {
		n := len(r.Bytes())
		end := len(payload) - r.Len()
		seq := r.Uvarint()
		d := core.Decision(r.Byte())
		delta := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("decision row: %w", err)
		}
		if d != core.DecisionAccept && d != core.DecisionReject {
			return nil, fmt.Errorf("decision row: decision %d is neither accept nor reject", d)
		}
		if delta > math.MaxInt64 || prev > math.MaxInt64-int64(delta) {
			return nil, fmt.Errorf("decision row: dseq past %d overflows", prev)
		}
		prev += int64(delta)
		out = append(out, decisionEntry{
			id:   core.TxnID{Origin: core.PeerID(payload[end-n : end]), Seq: seq},
			d:    d,
			dseq: prev,
		})
	}
	return out, nil
}
