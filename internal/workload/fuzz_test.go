package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeEncode holds the workload file format to a fixed point: any
// file Decode accepts encodes without error, and decoding that encoding
// gives back exactly the jobs the first decode produced.
func FuzzDecodeEncode(f *testing.F) {
	f.Add([]byte("# wasched workload v1\n0 writex8 1 1200 0 write 8 10\n10 sleep 1 600 0 sleep 300\n"))
	f.Add([]byte("20 reader 2 300 -3 read 4 2\n30 burst 1 3000 5 bursty 3 60 2 1\n"))
	f.Add([]byte("40 staged 2 600 0 bb 12.5 write 4 2\n0.000249 p 1 0.5 0 phased 2 sleep 1 write 1 0.25\n"))
	f.Add([]byte("1e300 x 1 1 0 sleep NaN\n5 y 1 1e-7 0 phased 99999999999 sleep 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, jobs); err != nil {
			t.Fatalf("Encode of decoded jobs: %v", err)
		}
		text := buf.String()
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode of the encoding: %v\n%s", err, text)
		}
		if len(jobs) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(jobs, again) {
			t.Fatalf("Decode → Encode → Decode is not a fixed point:\n first %+v\nsecond %+v\n%s", jobs, again, text)
		}
	})
}
