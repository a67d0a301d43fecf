package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// marketDigest hashes a market: every order's canonical MarshalBinary
// bytes, requests then offers in market order, each followed by the
// bits of its private TrueValue or TrueCost, which the codec leaves out.
func marketDigest(t *testing.T, m *Market) string {
	t.Helper()
	h := sha256.New()
	put := func(data []byte, err error, private float64) {
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
		h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(private)))
	}
	for _, r := range m.Requests {
		data, err := r.MarshalBinary()
		put(data, err, r.TrueValue)
	}
	for _, o := range m.Offers {
		data, err := o.MarshalBinary()
		put(data, err, o.TrueCost)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigests pins the bytes of Generate's markets, and of one
// GenerateDivergent market, as SHA-256 digests (marketDigest). The
// valuation rule reads each request's best offer, so a change to how
// that offer is found must leave every digest where it is. Seeds 1–3
// at 400 and 2 000 requests, each with and without a 0.05 locality
// radius, plus seed 1 at 8 000 requests.
func TestGenerateDigests(t *testing.T) {
	cases := []struct {
		seed     int64
		requests int
		geo      float64
		want     string
	}{
		{1, 400, 0,
			"a5a212c4b332144f0d9df8951d2ba6d6986de29b9a376d76c0c719d18ca0f5df"},
		{2, 400, 0,
			"01b05b5545ba1e0cced85c5f2b060bc03ebaa16ef6a2dabfa3dbfb780233548b"},
		{3, 400, 0,
			"c8ff859ab981553ddfe9162a3c3b9dbcd926880f319b916a25a89e525e726c10"},
		{1, 400, 0.05,
			"75899af8b3c6923ada1e1b2935d76520c54f5573a384d75ad81bc304866a2eb6"},
		{2, 400, 0.05,
			"a52dc4c75a889600479caa7c550869d08f1ec6cd4f242a0236cee38d6a8b9d2e"},
		{3, 400, 0.05,
			"488d051a6fba4f4fafe9998bfbdafebdbb97b4fe9c979880e6369c8165782c0c"},
		{1, 2000, 0,
			"c9e7c57ed84506454eefcf707446e29f91d71a22f1056050a15d7aa9b299d186"},
		{2, 2000, 0,
			"bee8e20913d2bcf7bd173848a7200db1133e650813be0d36eac7287f39925156"},
		{3, 2000, 0,
			"d30de8b80b2babecd2e8c1b8b5a8d0c932345ee025780b5ab2c2667d42e99f15"},
		{1, 2000, 0.05,
			"361a22d752400032cda24559c29ca4439c5652abfa59fb089e0d17c7833a8365"},
		{2, 2000, 0.05,
			"c09be474cd96fd464f95f2a68c42b4ce7e57c281d83795519e487dd58db7231a"},
		{3, 2000, 0.05,
			"fac01dc791271c0c7ab957d5a69a94895ed71cc3f22a0d702d71f0244548317c"},
		{1, 8000, 0,
			"2bd8dd7d44fb3b82e5a72ddbc57e4acbcdb74ab43818860c27eefffdf3bb81f3"},
	}
	for _, tc := range cases {
		m := Generate(Config{Seed: tc.seed, Requests: tc.requests, GeoRadius: tc.geo})
		if got := marketDigest(t, m); got != tc.want {
			t.Errorf("seed %d, %d requests, radius %g: digest %s, want %s", tc.seed, tc.requests, tc.geo, got, tc.want)
		}
	}
	m, _ := GenerateDivergent(DivergentConfig{Config: Config{Seed: 4, Requests: 300, Providers: 250, Flexibility: 0.8}, Skew: 0.9})
	if got, want := marketDigest(t, m), "b4747e4990a1abe38e04d311cc8e433340e6952a26d88c66504636066d56ddab"; got != want {
		t.Errorf("divergent: digest %s, want %s", got, want)
	}
}
