// mavr-gadgets scans a firmware image for ROP gadgets and prints the
// census plus the paper's Fig. 4/5 gadget listings.
//
// Usage:
//
//	mavr-gadgets [-app testapp|arduplane|arducopter|ardurover] [-elf file]
package main

import (
	"flag"
	"fmt"
	"os"

	"mavr/internal/asm"
	"mavr/internal/elfobj"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	app := flag.String("app", "testapp", "built-in application profile to generate")
	elfPath := flag.String("elf", "", "scan an ELF file instead of a generated profile")
	max := flag.Int("max", 24, "maximum gadget length in words")
	flag.Parse()

	var image []byte
	switch {
	case *elfPath != "":
		raw, err := os.ReadFile(*elfPath)
		if err != nil {
			return err
		}
		f, err := elfobj.Parse(raw)
		if err != nil {
			return err
		}
		image = f.Text
	default:
		spec, err := firmware.Profile(*app)
		if err != nil {
			return err
		}
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			return err
		}
		image = img.Flash
	}

	gs := gadget.Scan(image, *max)
	byKind := gadget.CountByKind(gs)
	fmt.Printf("scanned %d bytes: %d ret-gadgets found\n", len(image), len(gs))
	for _, k := range []gadget.Kind{gadget.KindStkMove, gadget.KindWriteMem, gadget.KindPopChain, gadget.KindOther} {
		fmt.Printf("  %-9s %d\n", k, byKind[k])
	}

	if sm, err := gadget.FindStkMove(gs); err == nil {
		fmt.Printf("\nGadget 1: stk_move (paper Fig. 4)\n")
		fmt.Print(asm.Disassemble(image, sm.Addr, 4+len(sm.PopRegs)))
	}
	if wm, err := gadget.FindWriteMem(gs, 5); err == nil {
		fmt.Printf("\nGadget 2: write_mem_gadget (paper Fig. 5)\n")
		fmt.Print(asm.Disassemble(image, wm.StoreAddr, 4+len(wm.PopRegs)))
	}
	return nil
}
