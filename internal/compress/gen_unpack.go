//go:build ignore

// gen_unpack writes unpack_gen.go, the width-specialized interval and set
// kernels (see package kernelgen). Run it with `go generate
// ./internal/compress`.
package main

import (
	"log"
	"os"

	"repro/internal/compress/kernelgen"
)

func main() {
	src, err := kernelgen.Emit()
	if err == nil {
		err = os.WriteFile("unpack_gen.go", src, 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}
}
