package elfx

import "debug/elf"

// Arch identifies the instruction-set architecture of a binary, which
// selects the analysis backend (linear sweep, landmark extraction, index
// construction) everywhere downstream. The zero value means "decide from
// the ELF header" so option structs embedding an Arch default to
// auto-detection.
type Arch uint8

const (
	// ArchAuto means "detect from the ELF header". Load never stores it
	// on a Binary; it appears only in option structs.
	ArchAuto Arch = iota
	// ArchX86 is 32-bit x86 (ELFCLASS32), decoded with x86.Mode32.
	ArchX86
	// ArchX86_64 is 64-bit x86 with the CET/endbr64 landmark model.
	ArchX86_64
	// ArchAArch64 is 64-bit ARM with the BTI landmark model.
	ArchAArch64
	// ArchUnknown marks bytes that do not carry a recognizable ELF
	// header. Analyses dispatched on it fail with a backend error.
	ArchUnknown

	// NArch bounds the Arch value space; per-arch memo arrays use it.
	NArch
)

// String returns the canonical lowercase name, matching the spellings
// ParseArch accepts and the values exported in API responses and metric
// labels.
func (a Arch) String() string {
	switch a {
	case ArchAuto:
		return "auto"
	case ArchX86:
		return "x86"
	case ArchX86_64:
		return "x86-64"
	case ArchAArch64:
		return "aarch64"
	}
	return "unknown"
}

// ParseArch maps a user-supplied architecture name to an Arch. Common
// alternate spellings (x86_64, amd64, arm64) are accepted.
func ParseArch(s string) (Arch, bool) {
	switch s {
	case "", "auto":
		return ArchAuto, true
	case "x86", "i386", "386":
		return ArchX86, true
	case "x86-64", "x86_64", "amd64":
		return ArchX86_64, true
	case "aarch64", "arm64":
		return ArchAArch64, true
	}
	return ArchUnknown, false
}

// archFrom is the single arch-assignment rule shared by Load and
// DetectArch: AArch64 by machine, otherwise by ELF class — which keeps
// every machine value that is not EM_AARCH64 (including the EM_NONE of
// synthetic images) on the historical x86 path.
func archFrom(machine elf.Machine, class elf.Class) Arch {
	if machine == elf.EM_AARCH64 {
		return ArchAArch64
	}
	if class == elf.ELFCLASS32 {
		return ArchX86
	}
	return ArchX86_64
}

// DetectArch peeks at the ELF identification and e_machine fields of an
// in-memory image without parsing section headers. It returns exactly
// the Arch that Load would assign, which is what lets callers key caches
// by architecture before paying for a full parse. Bytes that do not
// start with a valid ELF identification yield ArchUnknown.
func DetectArch(raw []byte) Arch {
	var f file
	if f.ident(raw) != nil {
		return ArchUnknown
	}
	return archFrom(f.machine, f.class)
}
