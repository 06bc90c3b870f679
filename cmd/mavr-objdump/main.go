// mavr-objdump disassembles an application binary with symbol
// annotations, objdump-style — useful for inspecting generated
// firmware, randomized images, and gadget neighbourhoods.
//
// Usage:
//
//	mavr-objdump [-app testapp | -elf file] [-func name] [-start 0xNNN -n 32]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mavr/internal/asm"
	"mavr/internal/avr"
	"mavr/internal/firmware"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	app := flag.String("app", "testapp", "built-in application profile to generate")
	elfPath := flag.String("elf", "", "disassemble an ELF file instead")
	fn := flag.String("func", "", "disassemble only this function")
	start := flag.Uint64("start", 0, "start byte address (with -n)")
	n := flag.Int("n", 0, "instruction count from -start")
	flag.Parse()

	elf, err := firmware.LoadELF(*elfPath, *app)
	if err != nil {
		return err
	}

	if *n > 0 {
		fmt.Print(asm.Disassemble(elf.Text, uint32(*start)/2, *n))
		return nil
	}

	funcs := elf.FuncSymbols()
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Value < funcs[j].Value })
	for _, s := range funcs {
		if *fn != "" && s.Name != *fn {
			continue
		}
		fmt.Printf("\n%08x <%s>: (%d bytes)\n", s.Value, s.Name, s.Size)
		pc := s.Value / 2
		end := (s.Value + s.Size) / 2
		for pc < end {
			in := avr.DecodeAt(elf.Text, pc)
			fmt.Printf("  %6x:\t%s\n", pc*2, asm.FormatInstr(in, pc))
			pc += uint32(in.Words)
		}
		if *fn != "" {
			return nil
		}
	}
	if *fn != "" {
		return fmt.Errorf("function %q not found", *fn)
	}
	return nil
}
