package fl

import (
	"strings"
	"testing"
)

// VecReducer keeps one accumulator across rounds: a second reduction must
// not see the first one's sums, a changed geometry must get fresh cells,
// and malformed or mismatched uploads are errors, not panics.
func TestVecReducer(t *testing.T) {
	up := func(client int, w float64, vecs ...[]float64) *Update {
		return &Update{Client: client, Weight: w, Vecs: vecs}
	}
	var r VecReducer
	for _, tc := range []struct {
		ups     []*Update
		sum     []float64
		w       float64
		wantErr string
	}{
		{ups: []*Update{up(0, 2, []float64{1, 2}), up(1, 3, []float64{10, 20})}, sum: []float64{32, 64}, w: 5},
		{ups: []*Update{up(2, 1, []float64{7, -7})}, sum: []float64{7, -7}, w: 1},
		{ups: []*Update{up(0, 1, []float64{1, 2, 3}), up(1, 1, []float64{1, 1, 1})}, sum: []float64{2, 3, 4}, w: 2},
		{ups: nil},
		{ups: []*Update{up(0, 1, []float64{1}), up(5, 1)}, wantErr: "client 5 uploaded a malformed payload"},
		{ups: []*Update{up(4, 1, nil)}, wantErr: "client 4 uploaded a malformed payload"},
		{ups: []*Update{up(0, 1, []float64{1, 2}), up(3, 1, []float64{1})}, wantErr: "client 3 uploaded 1 weights, subtree peers uploaded 2"},
	} {
		au, err := r.PreReduce(tc.ups)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("PreReduce error = %v, want one containing %q", err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if au.Children != len(tc.ups) || au.Weight != tc.w {
			t.Fatalf("aggregate of %d children at weight %v, want %d at %v", au.Children, au.Weight, len(tc.ups), tc.w)
		}
		if tc.sum == nil {
			if au.Vecs != nil {
				t.Fatalf("empty subtree shipped %v", au.Vecs)
			}
			continue
		}
		if len(au.Vecs) != 1 || len(au.Vecs[0]) != len(tc.sum) {
			t.Fatalf("aggregate vectors %v, want [%v]", au.Vecs, tc.sum)
		}
		for i, v := range tc.sum {
			if au.Vecs[0][i] != v {
				t.Fatalf("sum[%d] = %v, want %v", i, au.Vecs[0][i], v)
			}
		}
	}
}
