# Convenience aliases over dune. `make lint` is the one CI runs verbatim.

.PHONY: all build test lint bench fmt clean

all: build

build:
	dune build

test:
	dune runtest

lint:
	dune build @lint
	opam lint stackelberg.opam

bench:
	dune exec bench/main.exe -- --timings

fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
