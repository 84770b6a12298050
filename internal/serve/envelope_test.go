package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/tensor"
)

// sameRows reports whether two decoded row lists are the same value:
// nil-ness, shape and every float's bits.
func sameRows(a, b [][]float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func sameRequest(a, b PredictRequest) bool {
	return sameRows([][]float32{a.Input}, [][]float32{b.Input}) && sameRows(a.Inputs, b.Inputs) &&
		a.ScalarsOnly == b.ScalarsOnly && a.Priority == b.Priority && a.DeadlineMs == b.DeadlineMs
}

func sameResponse(a, b PredictResponse) bool {
	return sameRows(a.Outputs, b.Outputs) && reflect.DeepEqual(a.Errors, b.Errors)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// prefilled are destinations that already hold values: a field the
// document does not name must keep them.
func prefilledRequest() PredictRequest {
	return PredictRequest{Input: []float32{9}, Inputs: [][]float32{{8, 7}}, ScalarsOnly: true, Priority: "bulk", DeadlineMs: 3}
}

func prefilledResponse() PredictResponse {
	return PredictResponse{Outputs: [][]float32{{6}, {5}}, Errors: []*RowError{nil, {Status: 400, Error: "x"}}}
}

// checkEnvelopeDecode holds the envelope decoder to encoding/json on one
// document, for both envelope types and every way in: json.Unmarshal
// (which reaches UnmarshalJSON only with valid JSON), UnmarshalJSON
// called directly, and the server's streaming decodeRequest, fed in
// small reads. Accept/reject, error text, every decoded value and its
// row alignment must agree, from an empty destination and from a filled
// one.
func checkEnvelopeDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, fresh := range []bool{true, false} {
		var wantReq, gotReq, gotReqDirect PredictRequest
		var wantResp, gotResp, gotRespDirect PredictResponse
		if !fresh {
			wantReq, gotReq, gotReqDirect = prefilledRequest(), prefilledRequest(), prefilledRequest()
			wantResp, gotResp, gotRespDirect = prefilledResponse(), prefilledResponse(), prefilledResponse()
		}
		wantErr := json.Unmarshal(data, (*predictRequestAlias)(&wantReq))
		if err := json.Unmarshal(data, &gotReq); errText(err) != errText(wantErr) || !sameRequest(gotReq, wantReq) {
			t.Fatalf("request %q (fresh %v): json.Unmarshal %+v, %v; reflection %+v, %v", data, fresh, gotReq, err, wantReq, wantErr)
		}
		if err := gotReqDirect.UnmarshalJSON(data); errText(err) != errText(wantErr) || !sameRequest(gotReqDirect, wantReq) {
			t.Fatalf("request %q (fresh %v): UnmarshalJSON %+v, %v; reflection %+v, %v", data, fresh, gotReqDirect, err, wantReq, wantErr)
		}
		wantErr = json.Unmarshal(data, (*predictResponseAlias)(&wantResp))
		if err := json.Unmarshal(data, &gotResp); errText(err) != errText(wantErr) || !sameResponse(gotResp, wantResp) {
			t.Fatalf("response %q (fresh %v): json.Unmarshal %+v, %v; reflection %+v, %v", data, fresh, gotResp, err, wantResp, wantErr)
		}
		if err := gotRespDirect.UnmarshalJSON(data); errText(err) != errText(wantErr) || !sameResponse(gotRespDirect, wantResp) {
			t.Fatalf("response %q (fresh %v): UnmarshalJSON %+v, %v; reflection %+v, %v", data, fresh, gotRespDirect, err, wantResp, wantErr)
		}
	}
	// The server's path reads a stream and stops at the end of the first
	// value, as the json.Decoder it replaces did.
	var want PredictRequest
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode((*predictRequestAlias)(&want))
	for _, src := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data)), iotest.DataErrReader(bytes.NewReader(data))} {
		got, err := decodeRequest(src, -1, envLimits{})
		if errText(err) != errText(wantErr) || (err == nil && !sameRequest(got, want)) {
			t.Fatalf("request %q: decodeRequest %+v, %v; json.Decoder %+v, %v", data, got, err, want, wantErr)
		}
	}
}

// checkFloatEncode holds the encoder to encoding/json on one float32.
func checkFloatEncode(t *testing.T, bits uint32) {
	t.Helper()
	v := math.Float32frombits(bits)
	checkEncode(t, PredictResponse{Outputs: [][]float32{{v, 1}, {-v}}}, PredictRequest{Input: []float32{v}, Inputs: [][]float32{{0.5, v}}})
}

// checkEncode holds both envelopes' encoders to json.Marshal: the same
// bytes, or both refuse.
func checkEncode(t *testing.T, resp PredictResponse, req PredictRequest) {
	t.Helper()
	want, wantErr := json.Marshal(resp)
	if got, err := resp.encode(); errText(err) != errText(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("response %+v: %s, %v; json.Marshal %s, %v", resp, got, err, want, wantErr)
	}
	want, wantErr = json.Marshal(req)
	if got, err := req.encode(); errText(err) != errText(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("request %+v: %s, %v; json.Marshal %s, %v", req, got, err, want, wantErr)
	}
}

// checkFloatDecode holds the decoder to encoding/json on the decimals
// around one float32: its shortest form, longer forms of it, and the
// float64 half way to its neighbour — which no float32 holds, which a
// decoder that rounds twice gets wrong on one side or the other, and
// whose 17 digits are few enough to take the decoder's own arithmetic.
func checkFloatDecode(t *testing.T, bits uint32) {
	t.Helper()
	v := math.Float32frombits(bits)
	if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	next := math.Nextafter32(v, float32(math.Inf(1)))
	half := (float64(v) + float64(next)) / 2 // exact: both have 24-bit significands
	texts := []string{
		strconv.FormatFloat(float64(v), 'g', -1, 32),
		strconv.FormatFloat(float64(v), 'g', -1, 64),
		strconv.FormatFloat(float64(v), 'e', 20, 64),
		strconv.FormatFloat(half, 'g', -1, 64),
		strconv.FormatFloat(math.Nextafter(half, math.Inf(1)), 'g', -1, 64),
		strconv.FormatFloat(math.Nextafter(half, math.Inf(-1)), 'g', -1, 64),
		strconv.FormatFloat(half, 'e', 15, 64),
		strconv.FormatFloat(half, 'e', 17, 64),
	}
	if abs := math.Abs(float64(v)); abs > 1e-30 && abs < 1e30 {
		texts = append(texts, strconv.FormatFloat(float64(v), 'f', -1, 32), strconv.FormatFloat(half, 'f', -1, 64))
	}
	checkEnvelopeDecode(t, []byte(`{"outputs":[[`+strings.Join(texts, ",")+`]]}`))
}

// envelopeDocs are documents on and around the canonical form.
var envelopeDocs = []string{
	`{}`, ` { } `, `null`, `[]`, `1`, `"x"`, ``, `{`, `{"`, `{"outputs"`, `{"outputs":`, `{"outputs":[`, `{"outputs":[[`,
	`{"outputs":[[1,2],[3,4]]}`, `{"outputs":[]}`, `{"outputs":[[]]}`, `{"outputs":[[],[1]]}`, `{"outputs":null}`,
	`{"outputs":[null,[1]],"errors":[{"status":400,"error":"bad <row> & \u00e9"},null]}`,
	`{"outputs":[[1]],"errors":null}`, `{"outputs":[[1]],"errors":[]}`, `{"errors":[null]}`,
	`{"outputs":[[1]],"outputs":[[2],[3]]}`, `{"outputs":[[1,2]],"outputs":[[3]]}`, `{"Outputs":[[1]]}`, `{"OUTPUTS":[[1]]}`,
	`{"out\u0070uts":[[1]]}`, `{"outputs":[[1]],"extra":{"a":[1,{"b":null}]}}`, `{"extra":1,"outputs":[[1]]}`,
	`{"outputs":[[1]]} `, "{\"outputs\":[[1]]}\n", `{"outputs":[[1]]}x`, `{"outputs":[[1]]}{}`, `{"outputs":[[1]],}`,
	"{\"outputs\":[[1]]}\x00", "{\"outputs\x00\":[[1]]}", "{\"outputs\":[[1\x00]]}",
	`{"outputs":[[1,]]}`, `{"outputs":[[,1]]}`, `{"outputs":[[1],]}`, `{"outputs":[[1]`, `{"outputs":[[1 2]]}`, `{"outputs":[1]}`,
	`{"outputs":[["1"]]}`, `{"outputs":[[true]]}`, `{"outputs":[[{}]]}`, `{"outputs":[[[1]]]}`, `{"outputs":{"a":1}}`,
	"{ \"outputs\" :\t[ [ 1 , 2 ]\r\n, [ 3 ] ] }",
	`{"outputs":[[0,-0,0.0,-0.0,1e0,1E+0,1e-0,0e5]]}`, `{"outputs":[[01]]}`, `{"outputs":[[-]]}`, `{"outputs":[[.5]]}`, `{"outputs":[[5.]]}`,
	`{"outputs":[[1e]]}`, `{"outputs":[[1e+]]}`, `{"outputs":[[+1]]}`, `{"outputs":[[0x10]]}`, `{"outputs":[[NaN]]}`, `{"outputs":[[Infinity]]}`,
	`{"outputs":[[1e38,3.4028235e38,3.4028236e38,1e39]]}`, `{"outputs":[[1e39,2]]}`, `{"outputs":[[1e-45,1e-46,7e-46,1e-400]]}`,
	`{"outputs":[[0.1,0.2,0.30000001192092896,16777217,1.00000017881393432617187500001]]}`,
	`{"outputs":[[123456789012345678901234567890,0.000000000000000000000000000000000000000000001]]}`,
	`{"input":[0.1,0.2,0.3,0.4,0.5]}`, `{"inputs":[[0.1,0.2],[0.3,0.4]]}`, `{"input":[1],"inputs":[[2],[3]]}`, `{"inputs":[[2]],"input":[1]}`,
	`{"input":[]}`, `{"input":null}`, `{"inputs":null}`, `{"inputs":[]}`, `{"inputs":[null]}`, `{"input":[1],"input":[2]}`,
	`{"input":[1],"scalars_only":true}`, `{"scalars_only":false}`, `{"scalars_only":null}`, `{"scalars_only":1}`, `{"scalars_only":"true"}`,
	`{"scalars_only":tru}`, `{"scalars_only":truee}`, `{"scalars_only":true,"scalars_only":false}`, `{"Scalars_Only":true}`,
	`{"priority":"bulk"}`, `{"priority":"interactive"}`, `{"priority":""}`, `{"priority":"a\"b"}`, `{"priority":"a\\b"}`, `{"priority":"é"}`,
	`{"priority":"\u0062ulk"}`, `{"priority":"<b>&"}`, "{\"priority\":\"a\tb\"}", "{\"priority\":\"\xff\"}", `{"priority":null}`, `{"priority":5}`,
	`{"priority":"bulk`, `{"priority":"urgent","input":[1]}`,
	`{"deadline_ms":10}`, `{"deadline_ms":0}`, `{"deadline_ms":-0}`, `{"deadline_ms":-5}`, `{"deadline_ms":1.0}`, `{"deadline_ms":1e2}`, `{"deadline_ms":1.5}`,
	`{"deadline_ms":123456789}`, `{"deadline_ms":1234567890}`, `{"deadline_ms":99999999999999999999}`, `{"deadline_ms":"10"}`, `{"deadline_ms":null}`, `{"deadline_ms":01}`,
	`{"deadline_ms":00}`, `{"deadline_ms":010}`, `{"deadline_ms":-01}`, `{"deadline_ms":-}`, `{"deadline_ms":}`, `{"deadline_ms":1x}`, `{"scalars_only":tfalse}`,
	`{"input":[0.5,0.5],"scalars_only":true,"priority":"bulk","deadline_ms":250,"inputs":[[1,2]]}`,
	`{"input":[1]} trailing`, `{"input":[1]}{"input":[2]}`, `{"input":[1e39]} trailing`, `[1] {"input":[1]}`,
}

// TestEnvelopeDecodeMatchesEncodingJSON is the differential table.
func TestEnvelopeDecodeMatchesEncodingJSON(t *testing.T) {
	for _, doc := range envelopeDocs {
		checkEnvelopeDecode(t, []byte(doc))
	}
	// And whatever encoding/json writes for values of either type.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		rows := make([][]float32, rng.Intn(4))
		for r := range rows {
			rows[r] = make([]float32, rng.Intn(6))
			for c := range rows[r] {
				rows[r][c] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
			}
		}
		doc, err := json.Marshal(PredictResponse{Outputs: rows})
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelopeDecode(t, doc)
		doc, err = json.Marshal(PredictRequest{Inputs: rows, ScalarsOnly: i%2 == 0, DeadlineMs: rng.Intn(3000)})
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelopeDecode(t, doc)
	}
}

// floatBoundaries are the float32s around which encoding/json changes
// format, and the ones JSON cannot carry.
var floatBoundaries = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1e-6, 9.999999e-7, 1.0000001e-6, 1e21, 9.999999e20, 1.0000001e21,
	1e-7, 1e-10, 1e22, 1e-38, math.MaxFloat32, math.SmallestNonzeroFloat32, 1.1754944e-38, 1.1754942e-38,
	16777216, 16777217, 3.4e38, 1e9, 1e10, 123456.79, 0.333333343,
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
}

// TestEnvelopeFloatsMatchEncodingJSON checks the encoder's bytes against
// json.Marshal of the alias types — the format boundaries, 200 000
// random bit patterns, and the struct-level cases (nil and empty rows,
// omitted fields, strings that want escaping, row errors) — and the
// decoder's floats against encoding/json's on the decimals around 40 000
// float32s.
func TestEnvelopeFloatsMatchEncodingJSON(t *testing.T) {
	for _, v := range floatBoundaries {
		checkFloatEncode(t, math.Float32bits(v))
		checkFloatDecode(t, math.Float32bits(v))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200000; i++ {
		checkFloatEncode(t, rng.Uint32())
	}
	for i := 0; i < 20000; i++ {
		checkFloatDecode(t, rng.Uint32())
		checkFloatDecode(t, math.Float32bits(rng.Float32())) // the range replies live in
	}
	for _, resp := range []PredictResponse{
		{}, {Outputs: [][]float32{}}, {Outputs: [][]float32{nil}}, {Outputs: [][]float32{{}, nil, {1}}},
		{Outputs: [][]float32{{1}}, Errors: []*RowError{}},
		{Outputs: [][]float32{{1}, nil}, Errors: []*RowError{nil, {Status: 504, Error: "deadline <passed> & \"gone\" \u2028"}}},
	} {
		checkEncode(t, resp, PredictRequest{})
	}
	for _, req := range []PredictRequest{
		{}, {Input: []float32{}}, {Inputs: [][]float32{}}, {Inputs: [][]float32{nil, {}}}, {Input: []float32{1}, Inputs: [][]float32{{2}}},
		{ScalarsOnly: true}, {Priority: "bulk"}, {DeadlineMs: 10}, {DeadlineMs: -1}, {Priority: "a\"b<c>\\&\u00e9\x01\xff"},
		{Input: []float32{0.25}, Inputs: [][]float32{{1, 2}}, ScalarsOnly: true, Priority: "interactive", DeadlineMs: 250},
	} {
		checkEncode(t, PredictResponse{}, req)
	}
}

// seedCalls are the call bodies http_test.go and http_v1_test.go post,
// against the test model: whole batches, a single input, scalars only,
// a short row among good ones (a reply with row errors), all rows bad,
// no rows, lanes, a deadline, and the truncated document.
func seedCalls() [][]byte {
	var calls [][]byte
	for _, req := range []PredictRequest{
		{Inputs: [][]float32{testInput(0), testInput(1)}},
		{Input: testInput(0)},
		{Input: testInput(2), ScalarsOnly: true},
		{Inputs: [][]float32{testInput(0), {1, 2}, testInput(1)}},
		{Input: []float32{1}},
		{},
		{Input: testInput(0), Priority: "bulk"},
		{Input: testInput(0), Priority: "urgent"},
		{Input: testInput(3), DeadlineMs: 10},
	} {
		body, _ := json.Marshal(req)
		calls = append(calls, body)
	}
	return append(calls, []byte("{"))
}

// TestEnvelopeReplyBodiesByteForByte posts every seed call and checks
// that the body the handler wrote is, byte for byte, what the parent
// wrote for the same values — json.NewEncoder(w).Encode of the plain
// struct — and that the client-side decode of it matches encoding/json's.
func TestEnvelopeReplyBodiesByteForByte(t *testing.T) {
	ts := newTestHTTP(t)
	for _, call := range seedCalls() {
		resp, err := http.Post(ts.URL+predictPath, "application/json", bytes.NewReader(call))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelopeDecode(t, raw)
		checkEnvelopeDecode(t, call)
		var reply predictResponseAlias
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatalf("%s: reply %q: %v", call, raw, err)
		}
		if reply.Outputs == nil {
			continue // the {"error": ...} envelope of a refused request
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(reply); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Errorf("%s: reply differs from encoding/json's:\n got %q\nwant %q", call, raw, want.Bytes())
		}
	}
}

// FuzzJSONEnvelope: for arbitrary bytes the envelope decoder and
// encoding/json agree on accept/reject, on every decoded value bitwise
// and on row alignment; for an arbitrary float32 bit pattern the
// encoder's bytes equal json.Marshal's (NaN and the infinities refused
// alike) and the decimals around it decode to encoding/json's floats.
func FuzzJSONEnvelope(f *testing.F) {
	for _, doc := range envelopeDocs {
		f.Add([]byte(doc), uint32(0))
	}
	for _, v := range floatBoundaries {
		f.Add([]byte(`{"outputs":[[1]]}`), math.Float32bits(v))
	}
	f.Fuzz(func(t *testing.T, data []byte, bits uint32) {
		checkEnvelopeDecode(t, data)
		checkFloatEncode(t, bits)
		checkFloatDecode(t, bits)
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// endless yields prefix and then unit over and over, size bytes in all.
func endless(prefix, unit string, size int64) io.Reader {
	return io.LimitReader(io.MultiReader(strings.NewReader(prefix), &repeatReader{unit: unit}), size)
}

type repeatReader struct {
	unit string
	at   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.unit[r.at]
		r.at = (r.at + 1) % len(r.unit)
	}
	return len(p), nil
}

// wideOutModel has a narrow input and an output wide enough that a
// request may carry only 1024 rows; nothing in these tests reaches Run.
type wideOutModel struct{}

func (wideOutModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 2, Out: MaxFrameElems >> 10}}
}

func (wideOutModel) Run(string, *tensor.Matrix) (*tensor.Matrix, error) {
	return nil, fmt.Errorf("not reached")
}

// TestJSONCallBodyIsBounded sends the JSON call route bodies that would
// decode to far more than a frame may hold. Each must be refused on the
// budget the JGT1 path has — a row no wider than the method's input,
// MaxFrameElems over the wider of the two dims rows — after reading
// kilobytes of a gigabyte, not after building it, whether or not the
// length was declared.
func TestJSONCallBodyIsBounded(t *testing.T) {
	s := NewServer(wideOutModel{}, Config{MaxBatch: 8})
	defer s.Close()
	h := defaultHandler(t, s, HandlerConfig{})
	dims := s.Dims()[MethodPredict]
	maxRows := MaxFrameElems / max(dims.In, dims.Out)
	bodyCap := jsonBodyCap(dims.In, maxRows)
	const gib = 1 << 30

	post := func(body io.Reader, declared int64) (*httptest.ResponseRecorder, int64) {
		counted := &countingReader{r: body}
		req := httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", counted)
		req.ContentLength = declared
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec, counted.n
	}
	const slack = 8 << 10 // one read ahead of the decoder
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		within int64
	}{
		{"one endless row", endless(`{"inputs":[[0`, ",0", gib), http.StatusBadRequest, slack},
		{"one endless input", endless(`{"input":[0`, ",0", gib), http.StatusBadRequest, slack},
		{"endless rows", endless(`{"inputs":[[0,0]`, ",[0,0]", gib), http.StatusRequestEntityTooLarge, int64(maxRows)*6 + slack},
		{"endless key", endless(`{"`, "k", gib), http.StatusRequestEntityTooLarge, bodyCap + slack},
		{"endless rows off the canonical form", endless(`{"x":1,"inputs":[[0,0]`, ",[0,0]", gib), http.StatusRequestEntityTooLarge, bodyCap + slack},
		{"declared over the cap", endless(`{"inputs":[[0,0]`, ",[0,0]", gib), http.StatusRequestEntityTooLarge, 0},
	} {
		declared := int64(-1)
		if tc.within == 0 {
			declared = gib
		}
		rec, read := post(tc.body, declared)
		t.Logf("%s: %d after %d bytes read", tc.name, rec.Code, read)
		if rec.Code != tc.status || read > tc.within {
			t.Errorf("%s: status %d after %d bytes, want %d within %d: %s", tc.name, rec.Code, read, tc.status, tc.within, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `{"error":`) {
			t.Errorf("%s: reply is not the error envelope: %s", tc.name, rec.Body)
		}
	}

	// The budget itself is admitted: maxRows rows are not too many (here
	// each is refused on its own for its width, as a row error).
	full := io.MultiReader(endless(`{"inputs":[[0]`, ",[0]", int64(len(`{"inputs":[[0]`)+4*(maxRows-1))), strings.NewReader("]}"))
	rec, _ := post(full, -1)
	var reply PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusBadRequest || len(reply.Errors) != maxRows {
		t.Errorf("%d rows: status %d, %d row errors, %v: %.200s", maxRows, rec.Code, len(reply.Errors), err, rec.Body)
	}
	// Malformed stays 400 with the parent's prefix and encoding/json's text.
	rec, _ = post(strings.NewReader(`{"inputs":[[0,`), -1)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad json: unexpected EOF") {
		t.Errorf("truncated: status %d: %s", rec.Code, rec.Body)
	}
}

// TestDecodeRequestLimits pins where the two bounds fall, on the
// canonical form and off it.
func TestDecodeRequestLimits(t *testing.T) {
	lim := envLimits{cols: 2, rows: 3}
	for _, tc := range []struct {
		doc    string
		status int // 0: accepted
	}{
		{`{"inputs":[[1,2],[3,4],[5,6]]}`, 0},
		{`{"input":[1,2],"inputs":[[3,4],[5,6]]}`, 0},
		{`{"inputs":[[1],[],[5,6]],"scalars_only":true}`, 0},
		{`{"inputs":[[1,2],[3,4],[5,6],[7,8]]}`, http.StatusRequestEntityTooLarge},
		{`{"input":[1,2],"inputs":[[1,2],[3,4],[5,6]]}`, http.StatusRequestEntityTooLarge},
		{`{"inputs":[[1,2],[3,4],[5,6]],"input":[1,2]}`, http.StatusRequestEntityTooLarge},
		{`{"inputs":[[1,2,3]]}`, http.StatusBadRequest},
		{`{"input":[1,2,3]}`, http.StatusBadRequest},
		{`{"INPUTS":[[1,2],[3,4],[5,6]]}`, 0},
		{`{"INPUTS":[[1,2],[3,4],[5,6],[7,8]]}`, http.StatusRequestEntityTooLarge},
		{`{"Input":[1,2],"inputs":[[1,2],[3,4],[5,6]]}`, http.StatusRequestEntityTooLarge},
		{`{"x":0,"inputs":[[1,2,3]]}`, http.StatusBadRequest},
		{`{"x":0,"input":[1,2,3]}`, http.StatusBadRequest},
	} {
		_, err := decodeRequest(strings.NewReader(tc.doc), int64(len(tc.doc)), lim)
		var be *boundError
		switch {
		case tc.status == 0 && err != nil:
			t.Errorf("%s: %v", tc.doc, err)
		case tc.status != 0 && (!errors.As(err, &be) || be.status != tc.status):
			t.Errorf("%s: %v, want a %d bound error", tc.doc, err, tc.status)
		}
	}
}

// BenchmarkJSONEnvelope is the codec rung of the ladder: one reply of one
// row — so ns/op and allocs/op are per row — at tiny8's width (399, the
// interactive_tiny reply) and small16's (3087), encoded as serveCall
// encodes it and decoded as Client.Call decodes it.
func BenchmarkJSONEnvelope(b *testing.B) {
	for _, geom := range []struct {
		name string
		cols int
	}{{"tiny8", 399}, {"small16", 3087}} {
		rng := rand.New(rand.NewSource(1))
		row := make([]float32, geom.cols)
		for j := range row {
			row[j] = rng.Float32()
		}
		resp := PredictResponse{Outputs: [][]float32{row}}
		doc, err := resp.encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+geom.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if _, err := resp.encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+geom.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				var back PredictResponse
				if err := back.UnmarshalJSON(doc); err != nil || len(back.Outputs) != 1 || len(back.Outputs[0]) != geom.cols {
					b.Fatal(err, len(back.Outputs))
				}
			}
		})
	}
}
