package server

import (
	"fmt"
	"testing"
)

func TestMatchLogOffsets(t *testing.T) {
	l := newMatchLog(4)
	for i := 0; i < 3; i++ {
		l.appendBlock([][]byte{[]byte(fmt.Sprintf("m%d", i))}, 0)
	}
	lines, next, wait := l.read(nil, 0)
	if len(lines) != 3 || next != 3 {
		t.Fatalf("read(0) = %d lines, next %d, want 3 lines, next 3", len(lines), next)
	}
	if string(lines[0]) != "m0" || string(lines[2]) != "m2" {
		t.Fatalf("read(0) lines = %q", lines)
	}
	if wait == nil {
		t.Fatal("open log returned nil wait channel")
	}

	// Reading at the tail returns nothing and the notify channel.
	lines, next, _ = l.read(nil, 3)
	if len(lines) != 0 || next != 3 {
		t.Fatalf("read(3) = %d lines, next %d", len(lines), next)
	}
}

func TestMatchLogEviction(t *testing.T) {
	l := newMatchLog(4)
	for i := 0; i < 10; i++ {
		l.appendBlock([][]byte{[]byte(fmt.Sprintf("m%d", i))}, 0)
	}
	start, end := l.bounds()
	if start != 6 || end != 10 {
		t.Fatalf("bounds = [%d, %d), want [6, 10)", start, end)
	}
	// An offset older than retention clamps to the oldest line.
	lines, next, _ := l.read(nil, 0)
	if len(lines) != 4 || next != 10 {
		t.Fatalf("read(0) = %d lines, next %d, want 4 lines, next 10", len(lines), next)
	}
	if string(lines[0]) != "m6" || string(lines[3]) != "m9" {
		t.Fatalf("read(0) lines = %q", lines)
	}
}

func TestMatchLogNotifyAndClose(t *testing.T) {
	l := newMatchLog(4)
	_, _, wait := l.read(nil, 0)
	select {
	case <-wait:
		t.Fatal("notify channel closed before any append")
	default:
	}
	l.appendBlock([][]byte{[]byte("m0")}, 0)
	select {
	case <-wait:
	default:
		t.Fatal("append did not wake the waiting reader")
	}

	l.close()
	lines, next, wait := l.read(nil, 0)
	if len(lines) != 1 || next != 1 {
		t.Fatalf("read after close = %d lines, next %d", len(lines), next)
	}
	if wait != nil {
		t.Fatal("closed log returned a non-nil wait channel")
	}
	// Appends after close are ignored.
	l.appendBlock([][]byte{[]byte("late")}, 0)
	if _, end := l.bounds(); end != 1 {
		t.Fatalf("append after close extended the log to %d", end)
	}
}

func TestValidID(t *testing.T) {
	for _, id := range []string{"q1", "chemo-q1", "a.b_c-D9"} {
		if !validID(id) {
			t.Errorf("validID(%q) = false, want true", id)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, id := range []string{"", ".hidden", "a/b", "a b", "q\"1", string(long)} {
		if validID(id) {
			t.Errorf("validID(%q) = true, want false", id)
		}
	}
}
