package jobs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mdtask/internal/proptest"
)

// sameJournalJSON returns nil when appendRecord and appendSnapshot,
// appending to a non-empty dst, write exactly json.Marshal's bytes for
// c's record and for the snapshotState of c's table after dst's, or fail
// exactly where json.Marshal fails and then leave dst as it was.
func sameJournalJSON(c journalCase) error {
	const prefix = "prefix,"
	check := func(what string, want []byte, wantErr error, got []byte, gotErr error) error {
		switch {
		case (wantErr == nil) != (gotErr == nil):
			return fmt.Errorf("%s: json.Marshal error %v, encoder error %v", what, wantErr, gotErr)
		case gotErr != nil:
			if string(got) != prefix {
				return fmt.Errorf("%s: encoder failed (%v) but changed dst to %q", what, gotErr, got)
			}
		case string(got) != prefix+string(want):
			return fmt.Errorf("%s: encoder wrote\n%s\njson.Marshal wrote\n%s%s", what, got, prefix, want)
		}
		return nil
	}
	want, wantErr := json.Marshal(c.rec)
	got, gotErr := appendRecord([]byte(prefix), &c.rec)
	if err := check("record", want, wantErr, got, gotErr); err != nil {
		return err
	}
	jobs := make([]*Job, len(c.jobs))
	for i := range c.jobs {
		jobs[i] = &Job{rec: c.jobs[i]}
	}
	want, wantErr = json.Marshal(snapshotState{LSN: c.lsn, Jobs: append([]JobRecord{}, c.jobs...)})
	got, gotErr = appendSnapshot([]byte(prefix), c.lsn, jobs)
	return check("snapshot", want, wantErr, got, gotErr)
}

// journalCase is one journal record and one snapshot table for the
// encoder property. Its generator draws every field independently of
// the record's type, so each field is seen with every neighbour absent
// or present.
type journalCase struct {
	rec  walRecord
	lsn  uint64
	jobs []JobRecord
}

// Generate implements quick.Generator.
func (journalCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := journalCase{lsn: drawUint(r)}
	c.rec = walRecord{
		LSN:    drawUint(r),
		T:      []string{"submit", "state", "prune", "shutdown", drawString(r)}[r.Intn(5)],
		ID:     maybe(r, drawString),
		State:  State(maybe(r, drawString)),
		Err:    maybe(r, drawString),
		Digest: maybe(r, drawString),
		TS:     drawTime(r),
	}
	if r.Intn(2) == 0 {
		rec := drawJobRecord(r)
		c.rec.Job = &rec
	}
	switch r.Intn(3) {
	case 0:
		c.rec.IDs = []string{}
	case 1:
		for n := 1 + r.Intn(4); n > 0; n-- {
			c.rec.IDs = append(c.rec.IDs, drawString(r))
		}
	}
	for n := r.Intn(4); n > 0; n-- {
		c.jobs = append(c.jobs, drawJobRecord(r))
	}
	return reflect.ValueOf(c)
}

func drawJobRecord(r *rand.Rand) JobRecord {
	rec := JobRecord{
		ID:      drawString(r),
		Key:     drawString(r),
		State:   State(drawString(r)),
		Error:   maybe(r, drawString),
		Digest:  maybe(r, drawString),
		Created: drawTime(r),
		Updated: drawTime(r),
		Spec: Spec{
			Analysis:          drawString(r),
			Engine:            maybe(r, drawString),
			Parallelism:       maybe(r, drawInt),
			Tasks:             maybe(r, drawInt),
			Method:            maybe(r, drawString),
			FullMatrix:        r.Intn(2) == 0,
			MaxResidentFrames: maybe(r, drawInt),
			Approach:          maybe(r, drawString),
			Cutoff:            maybe(r, drawFloat),
			Path:              maybe(r, drawString),
		},
	}
	if r.Intn(2) == 0 {
		rec.Spec.Synth = &SynthSpec{
			Preset: maybe(r, drawString),
			Count:  maybe(r, drawInt),
			Atoms:  maybe(r, drawInt),
			Frames: maybe(r, drawInt),
			Seed:   maybe(r, drawUint),
		}
	}
	return rec
}

// maybe draws the zero value half the time and a value of draw's
// otherwise.
func maybe[T any](r *rand.Rand, draw func(*rand.Rand) T) T {
	var zero T
	if r.Intn(2) == 0 {
		return zero
	}
	return draw(r)
}

// stringPieces are the fragments strings are made of: plain text, the
// bytes json.Marshal escapes ('"', '\\', control bytes, "<>&"), the
// separators it escapes (U+2028, U+2029), multi-byte runes it does not,
// and invalid UTF-8 (a stray continuation byte, a truncated rune, an
// encoded surrogate).
var stringPieces = []string{
	"job-000001", "psa", "/data/run 1", "<", ">", "&", "<script>&amp;",
	"\u2028", "\u2029", "\x00", "\x01", "\x1f", "\x7f", "\b", "\f", "\n",
	"\r", "\t", `"`, `\`, "\u00e9", "\U0001F600", "\ufffd", "\xff", "\xe2\x80", "\xed\xa0\x80",
}

func drawString(r *rand.Rand) string {
	var sb strings.Builder
	for n := r.Intn(5); n > 0; n-- {
		if r.Intn(4) == 0 {
			sb.WriteByte(byte(r.Intn(256)))
		} else {
			sb.WriteString(stringPieces[r.Intn(len(stringPieces))])
		}
	}
	return sb.String()
}

func drawInt(r *rand.Rand) int {
	return []int{1, -1, 9, 10, 1 << 20, math.MaxInt, math.MinInt, int(r.Int63()) - r.Intn(2)<<(strconv.IntSize-2)}[r.Intn(8)]
}

func drawUint(r *rand.Rand) uint64 {
	return []uint64{0, 1, 99, math.MaxUint64, r.Uint64(), uint64(r.Intn(1000))}[r.Intn(6)]
}

// drawFloat draws cutoffs across encoding/json's 'f'/'e' switch at 1e-6
// and 1e21, now and then the NaN or ±Inf it refuses.
func drawFloat(r *rand.Rand) float64 {
	switch r.Intn(16) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*r.Intn(2))
	case 2:
		return math.Copysign(0, -1)
	default:
		return math.Ldexp(r.NormFloat64(), r.Intn(200)-100)
	}
}

// drawTime draws the zero time, instants in UTC, in the local zone and
// in fixed zones up to ±26 h (RFC 3339 cannot write 24 h or more), and
// now and then a year outside [0,9999], which json.Marshal refuses.
func drawTime(r *rand.Rand) time.Time {
	if r.Intn(6) == 0 {
		return time.Time{}
	}
	t := time.Unix(r.Int63n(1<<35)-1<<34, r.Int63n(1e9)*int64(r.Intn(2)))
	switch k := r.Intn(20); {
	case k == 0:
		return time.Date(10000+r.Intn(3), 1, 1, 0, 0, 0, 0, time.UTC)
	case k == 1:
		return time.Date(-r.Intn(3), 12, 31, 23, 59, 59, 0, time.UTC)
	case k < 8:
		return t.UTC()
	case k < 10:
		return t.Local()
	default:
		return t.In(time.FixedZone("z", (r.Intn(53)-26)*3600+r.Intn(4)*900+r.Intn(2)*7))
	}
}

// TestJournalEncoderMatchesJSON checks appendRecord and appendSnapshot
// against json.Marshal byte for byte: on hand records of every type,
// then on every journalCase the generator draws.
func TestJournalEncoderMatchesJSON(t *testing.T) {
	utc := time.Unix(1700000000, 123456789).UTC()
	east := time.Unix(1700000000, 0).In(time.FixedZone("east", 5*3600+30*60))
	job := JobRecord{ID: "job-000001", Key: "k", State: StateQueued, Created: utc, Updated: east,
		Spec: Spec{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
			Synth: &SynthSpec{Count: 4, Atoms: 16, Frames: 8}}}
	plain := JobRecord{ID: "job-000002", State: StateFailed, Error: "<a&b>\u2028\x00\x1f\xff\"\\",
		Spec: Spec{Analysis: AnalysisLeaflet, Cutoff: 15, Path: "/in/m.mdt", Synth: &SynthSpec{}}}
	seeds := map[string]journalCase{
		"submit":        {rec: walRecord{LSN: 1, T: "submit", Job: &job}},
		"submit failed": {rec: walRecord{LSN: 2, T: "submit", Job: &plain}},
		"state":         {rec: walRecord{LSN: 3, T: "state", ID: "job-000001", State: StateDone, Digest: "ab", TS: utc}},
		"state error":   {rec: walRecord{LSN: 4, T: "state", ID: "job-000002", State: StateFailed, Err: "x<\u2029\n", TS: east}},
		"prune":         {rec: walRecord{LSN: 5, T: "prune", IDs: []string{"job-000001", "job-000002"}}},
		"prune empty":   {rec: walRecord{LSN: 6, T: "prune", IDs: []string{}}},
		"shutdown":      {rec: walRecord{LSN: math.MaxUint64, T: "shutdown"}},
		"empty table":   {lsn: 7},
		"table":         {lsn: 8, jobs: []JobRecord{job, plain}},
		"year 10000":    {rec: walRecord{T: "state", TS: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		"zone 24h":      {lsn: 9, jobs: []JobRecord{{Created: utc.In(time.FixedZone("far", 24*3600))}}},
		"NaN cutoff":    {lsn: 10, jobs: []JobRecord{{Spec: Spec{Cutoff: math.NaN()}}}},
	}
	for name, c := range seeds {
		if err := sameJournalJSON(c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	proptest.Check(t, func(c journalCase) bool {
		if err := sameJournalJSON(c); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500})
}

// TestJournalEncoderWritesEveryField fills every exported field of a
// walRecord and of a snapshotState, through JobRecord, Spec and
// SynthSpec, with a value omitempty keeps, and checks the encoders
// still match json.Marshal: a field added to one of those types fails
// here until appendRecord or appendSnapshot writes it.
func TestJournalEncoderWritesEveryField(t *testing.T) {
	var rec walRecord
	fillEveryField(t, reflect.ValueOf(&rec).Elem(), "walRecord")
	var snap snapshotState
	fillEveryField(t, reflect.ValueOf(&snap).Elem(), "snapshotState")
	if err := sameJournalJSON(journalCase{rec: rec, lsn: snap.LSN, jobs: snap.Jobs}); err != nil {
		t.Fatal(err)
	}
}

// fillEveryField sets v, and every exported field under it, to a
// non-zero value named after its path, so two fields never hold the same
// value.
func fillEveryField(t *testing.T, v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(path)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(len(path)))
	case reflect.Uint64:
		v.SetUint(uint64(len(path)) << 40)
	case reflect.Float64:
		v.SetFloat(float64(len(path)) / 8)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEveryField(t, v.Elem(), path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillEveryField(t, v.Index(0), path+"[0]")
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(1700000000+int64(len(path)), 1).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillEveryField(t, v.Field(i), path+"."+f.Name)
			}
		}
	default:
		t.Fatalf("%s: fillEveryField cannot fill a %s; teach it, and the journal encoder, this kind", path, v.Type())
	}
}
