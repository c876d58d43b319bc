package errcode

import (
	"errors"
	"fmt"
	"testing"
)

var (
	errTestFull    = New("test_full", "test: queue full")
	errTestMissing = New("test_missing", "test: not found")
	errTestUnused  = New("test_unused", "test: never sent")
)

func TestCodeEmbeddedInMessage(t *testing.T) {
	if got := errTestFull.Error(); got != "test: queue full [code=test_full]" {
		t.Errorf("message %q", got)
	}
	if Code(errTestFull) != "test_full" {
		t.Errorf("Code = %q", Code(errTestFull))
	}
	if Code(errors.New("plain")) != "" {
		t.Error("plain error produced a code")
	}
	if Code(nil) != "" {
		t.Error("nil error produced a code")
	}
}

func TestCodeSurvivesWrapping(t *testing.T) {
	wrapped := fmt.Errorf("job 7: %w", errTestFull)
	if Code(wrapped) != "test_full" {
		t.Errorf("wrapped code = %q", Code(wrapped))
	}
}

func TestDecodeAcrossStringTransport(t *testing.T) {
	// The wire delivers a server error as a bare string.
	wire := errors.New(fmt.Errorf("job 7: %w", errTestFull).Error())
	dec := Decode(wire)
	if !errors.Is(dec, errTestFull) {
		t.Errorf("errors.Is failed after transport: %v", dec)
	}
	if errors.Is(dec, errTestMissing) {
		t.Error("decoded error matches the wrong sentinel")
	}
	if dec.Error() != wire.Error() {
		t.Errorf("message changed: %q -> %q", wire.Error(), dec.Error())
	}
}

func TestDecodePassThrough(t *testing.T) {
	if Decode(nil) != nil {
		t.Error("Decode(nil) != nil")
	}
	plain := errors.New("no marker here")
	if Decode(plain) != plain {
		t.Error("unmarked error did not pass through")
	}
	unknown := errors.New("boom [code=nobody_registered_this]")
	if Decode(unknown) != unknown {
		t.Error("unregistered code did not pass through")
	}
}

func TestDuplicateCodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate code did not panic")
		}
	}()
	New("test_full", "dup")
}

func TestDecodeKeepsLocalWrapChains(t *testing.T) {
	// Same-process errors (no transport) already work with errors.Is;
	// Decode must not break that.
	err := fmt.Errorf("context: %w", errTestUnused)
	if !errors.Is(Decode(err), errTestUnused) {
		t.Error("Decode broke a local wrap chain")
	}
}
