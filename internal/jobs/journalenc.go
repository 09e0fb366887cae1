package jobs

import (
	"errors"
	"fmt"
	"time"
	"unicode/utf8"
)

// The journal's records and snapshots are encoded here without
// reflection: appendRecord and appendSnapshot write exactly the bytes
// json.Marshal writes for a walRecord and a snapshotState, so a journal
// written by either replays through json.Unmarshal alike. Fields go in
// declaration order and omitempty fields are left out when empty. A
// field added to JobRecord, Spec, SynthSpec, walRecord or snapshotState
// must be added here too (TestJournalEncoderWritesEveryField fails until
// it is). Like json.Marshal, an encoder refuses a time outside RFC 3339
// or a NaN or ±Inf cutoff, and then returns dst as it was.

// appendRecord appends the JSON encoding of r to dst.
func appendRecord(dst []byte, r *walRecord) ([]byte, error) {
	b := append(dst, `{"lsn":`...)
	b = appendUint(b, r.LSN)
	b = append(b, `,"t":`...)
	b = appendString(b, r.T)
	var err error
	if r.Job != nil {
		b = append(b, `,"job":`...)
		if b, err = appendJobRecord(b, r.Job); err != nil {
			return dst, err
		}
	}
	if r.ID != "" {
		b = append(b, `,"id":`...)
		b = appendString(b, r.ID)
	}
	if r.State != "" {
		b = append(b, `,"state":`...)
		b = appendString(b, string(r.State))
	}
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, r.Err)
	}
	if r.Digest != "" {
		b = append(b, `,"digest":`...)
		b = appendString(b, r.Digest)
	}
	if len(r.IDs) > 0 {
		b = append(b, `,"ids":[`...)
		for i, id := range r.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, id)
		}
		b = append(b, ']')
	}
	// omitempty never drops a struct, so the zero time is written too.
	b = append(b, `,"ts":`...)
	if b, err = appendTime(b, r.TS); err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// appendSnapshot appends the JSON encoding of the snapshotState that
// holds lsn and the records of jobs, in order, read in place: the
// caller holds the table lock, the only lock Job.rec is written under.
func appendSnapshot(dst []byte, lsn uint64, jobs []*Job) ([]byte, error) {
	b := append(dst, `{"lsn":`...)
	b = appendUint(b, lsn)
	b = append(b, `,"jobs":[`...)
	var err error
	for i, j := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendJobRecord(b, &j.rec); err != nil {
			return dst, err
		}
	}
	return append(b, "]}"...), nil
}

// appendJobRecord appends the JSON encoding of rec.
func appendJobRecord(b []byte, rec *JobRecord) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = appendString(b, rec.ID)
	b = append(b, `,"spec":`...)
	var err error
	if b, err = appendSpec(b, &rec.Spec); err != nil {
		return b, err
	}
	b = append(b, `,"key":`...)
	b = appendString(b, rec.Key)
	b = append(b, `,"state":`...)
	b = appendString(b, string(rec.State))
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, rec.Error)
	}
	if rec.Digest != "" {
		b = append(b, `,"digest":`...)
		b = appendString(b, rec.Digest)
	}
	b = append(b, `,"created":`...)
	if b, err = appendTime(b, rec.Created); err != nil {
		return b, err
	}
	b = append(b, `,"updated":`...)
	if b, err = appendTime(b, rec.Updated); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendSpec appends the JSON encoding of s.
func appendSpec(b []byte, s *Spec) ([]byte, error) {
	b = append(b, `{"analysis":`...)
	b = appendString(b, s.Analysis)
	if s.Engine != "" {
		b = append(b, `,"engine":`...)
		b = appendString(b, s.Engine)
	}
	if s.Parallelism != 0 {
		b = append(b, `,"parallelism":`...)
		b = appendInt(b, int64(s.Parallelism))
	}
	if s.Tasks != 0 {
		b = append(b, `,"tasks":`...)
		b = appendInt(b, int64(s.Tasks))
	}
	if s.Method != "" {
		b = append(b, `,"method":`...)
		b = appendString(b, s.Method)
	}
	if s.FullMatrix {
		b = append(b, `,"full_matrix":true`...)
	}
	if s.MaxResidentFrames != 0 {
		b = append(b, `,"max_resident_frames":`...)
		b = appendInt(b, int64(s.MaxResidentFrames))
	}
	if s.Approach != "" {
		b = append(b, `,"approach":`...)
		b = appendString(b, s.Approach)
	}
	if s.Cutoff != 0 {
		b = append(b, `,"cutoff":`...)
		var err error
		if b, err = appendFloat(b, s.Cutoff); err != nil {
			return b, fmt.Errorf("jobs: encoding journal: %w", err)
		}
	}
	if s.Path != "" {
		b = append(b, `,"path":`...)
		b = appendString(b, s.Path)
	}
	if g := s.Synth; g != nil {
		b = append(b, `,"synth":`...)
		b = appendSynth(b, g)
	}
	return append(b, '}'), nil
}

// appendSynth appends the JSON encoding of g. Every field is
// omitempty, so each is written after a comma and the first comma
// becomes the opening brace.
func appendSynth(b []byte, g *SynthSpec) []byte {
	start := len(b)
	if g.Preset != "" {
		b = appendString(append(b, `,"preset":`...), g.Preset)
	}
	if g.Count != 0 {
		b = appendInt(append(b, `,"count":`...), int64(g.Count))
	}
	if g.Atoms != 0 {
		b = appendInt(append(b, `,"atoms":`...), int64(g.Atoms))
	}
	if g.Frames != 0 {
		b = appendInt(append(b, `,"frames":`...), int64(g.Frames))
	}
	if g.Seed != 0 {
		b = appendUint(append(b, `,"seed":`...), g.Seed)
	}
	if len(b) == start {
		return append(b, "{}"...)
	}
	b[start] = '{'
	return append(b, '}')
}

// appendTime appends t as time.Time's MarshalJSON does: RFC 3339 with
// nanoseconds, refusing a year outside [0,9999] or a zone offset of 24
// hours or more, which RFC 3339 cannot write.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	s := b[n:]
	if s[len("9999")] != '-' {
		return b, errors.New("jobs: encoding journal: year outside of range [0,9999]")
	}
	if s[len(s)-1] != 'Z' {
		h := s[len(s)-len("07:00"):]
		if c := s[len(s)-len("Z07:00")]; '0' <= c && c <= '9' || 10*(h[0]-'0')+h[1]-'0' >= 24 {
			return b, errors.New("jobs: encoding journal: timezone hour outside of range [0,23]")
		}
	}
	return append(b, '"'), nil
}

// appendString appends s as a JSON string, escaped as json.Marshal
// escapes it: '"', '\\' and control bytes, the HTML-sensitive '<', '>'
// and '&', U+2028 and U+2029; each byte of invalid UTF-8 becomes
// U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
