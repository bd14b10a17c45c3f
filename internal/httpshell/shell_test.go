package httpshell

import (
	"strings"
	"testing"
)

func TestValidRequestID(t *testing.T) {
	cases := []struct {
		id string
		ok bool
	}{
		{"abc-123_X.z", true},
		{"550e8400-e29b-41d4-a716-446655440000", true},
		{"", false},
		{strings.Repeat("a", maxRequestIDLen), true},
		{strings.Repeat("a", maxRequestIDLen+1), false},
		{"has space", false},
		{"newline\n", false},
		{"quote\"", false},
	}
	for _, tc := range cases {
		if got := validRequestID(tc.id); got != tc.ok {
			t.Errorf("validRequestID(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}
}
