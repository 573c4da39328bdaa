"""Reference-genome coordinate math, codon translation, and nucleotide-to-amino-acid mutation mapping.

Coordinates are 1-based throughout. Amino-acid mapping is restricted to the
spike ORF; everything is driven by an annotation file plus a reference
sequence for the ORF span, so synthetic genomes can supply their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .pipeline import Refused

REFERENCE_GENOME_LENGTH = 29_903
SPIKE_RESIDUES = 1273

# Nucleotide states in fixed order; index into this tuple is the state index
# used by the tokenizer. "-" is deletion.
NT_STATES = ("A", "T", "C", "G", "-")
NT_STATE_INDEX = {s: i for i, s in enumerate(NT_STATES)}
BASES = ("A", "T", "C", "G")

GENETIC_CODE = {
    "TTT": "F", "TTC": "F", "TTA": "L", "TTG": "L",
    "TCT": "S", "TCC": "S", "TCA": "S", "TCG": "S",
    "TAT": "Y", "TAC": "Y", "TAA": "*", "TAG": "*",
    "TGT": "C", "TGC": "C", "TGA": "*", "TGG": "W",
    "CTT": "L", "CTC": "L", "CTA": "L", "CTG": "L",
    "CCT": "P", "CCC": "P", "CCA": "P", "CCG": "P",
    "CAT": "H", "CAC": "H", "CAA": "Q", "CAG": "Q",
    "CGT": "R", "CGC": "R", "CGA": "R", "CGG": "R",
    "ATT": "I", "ATC": "I", "ATA": "I", "ATG": "M",
    "ACT": "T", "ACC": "T", "ACA": "T", "ACG": "T",
    "AAT": "N", "AAC": "N", "AAA": "K", "AAG": "K",
    "AGT": "S", "AGC": "S", "AGA": "R", "AGG": "R",
    "GTT": "V", "GTC": "V", "GTA": "V", "GTG": "V",
    "GCT": "A", "GCC": "A", "GCA": "A", "GCG": "A",
    "GAT": "D", "GAC": "D", "GAA": "E", "GAG": "E",
    "GGT": "G", "GGC": "G", "GGA": "G", "GGG": "G",
}

DATA_DIR = Path(__file__).parent / "data"
DEFAULT_ANNOTATION = DATA_DIR / "orf_annotation.tsv"
DEFAULT_REFERENCE = DATA_DIR / "reference_orfs.fasta"


class AnnotationError(ValueError):
    """Raised when an annotation or reference file violates its contract."""


@dataclass(frozen=True, slots=True)
class NtMutation:
    """A nucleotide mutation: target state at a 1-based site. Origin state is not stored."""

    site: int
    to: str

    def __post_init__(self):
        if self.to not in NT_STATE_INDEX:
            raise ValueError(f"invalid nucleotide state {self.to!r}")
        if self.site < 1:
            raise ValueError(f"site must be >= 1, got {self.site}")

    def fmt(self) -> str:
        return f"{self.site}{self.to}"

    @classmethod
    def parse(cls, text: str) -> "NtMutation":
        """Parse strings like ``C1000T``, ``1000T`` or ``1000-``; any origin base is ignored."""
        s = text.strip()
        if s and s[0] in NT_STATE_INDEX and not s[0].isdigit():
            s = s[1:]
        if len(s) < 2 or s[-1] not in NT_STATE_INDEX or not s[:-1].isdigit():
            raise ValueError(f"malformed mutation string {text!r}")
        return cls(site=int(s[:-1]), to=s[-1])


@dataclass(frozen=True, slots=True)
class AaMutation:
    """Amino-acid mutation on a gene; ``to_aa`` may be ``*`` (stop) or ``-`` (full-codon deletion)."""

    gene: str
    pos: int
    from_aa: str
    to_aa: str

    def fmt(self) -> str:
        return f"{self.gene}:{self.from_aa}{self.pos}{self.to_aa}"

    @classmethod
    def parse(cls, text: str) -> "AaMutation":
        gene, _, body = text.partition(":")
        if not body or len(body) < 3:
            raise ValueError(f"malformed amino-acid mutation {text!r}")
        return cls(gene=gene, pos=int(body[1:-1]), from_aa=body[0], to_aa=body[-1])


@dataclass(frozen=True, slots=True)
class Frameshift:
    """Partial-codon deletion marker; never matches any AaMutation target."""

    gene: str
    pos: int


@dataclass(frozen=True)
class OrfAnnotation:
    name: str
    nt_start: int
    nt_end: int
    reference_sequence: str

    def __post_init__(self):
        span = self.nt_end - self.nt_start + 1
        if span <= 0 or span % 3 != 0:
            raise AnnotationError(f"ORF {self.name}: span {span} not a positive multiple of 3")
        if len(self.reference_sequence) != span:
            raise AnnotationError(
                f"ORF {self.name}: reference has {len(self.reference_sequence)} nt, span is {span}"
            )

    @property
    def n_codons(self) -> int:
        return (self.nt_end - self.nt_start + 1) // 3


def translate_codon(codon: str) -> str:
    """Translate a 3-base codon to its amino acid (``*`` for stop).

    Raises ValueError("codon incomplete") if any position is deleted.
    """
    if len(codon) != 3:
        raise ValueError(f"codon must have 3 positions, got {codon!r}")
    if "-" in codon:
        raise ValueError("codon incomplete")
    try:
        return GENETIC_CODE[codon]
    except KeyError:
        raise ValueError(f"invalid codon {codon!r}") from None


def load_annotation(
    annotation_path: Path | str = DEFAULT_ANNOTATION,
    reference_path: Path | str = DEFAULT_REFERENCE,
) -> "GenomeAnnotation":
    """Load ORF coordinates and matching reference spans; validates the spike
    residue count. A malformed or repeated row, or a repeated reference
    record, is refused naming the file and the line."""
    rows: dict[str, tuple[int, int, int]] = {}  # name -> (line, start, end)
    for lineno, line in enumerate(Path(annotation_path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise Refused(f"{annotation_path}: line {lineno}: expected name, start and end"
                          f" separated by tabs, got {len(fields)} fields")
        name, start, end = fields
        if name in rows:
            raise Refused(f"{annotation_path}: line {lineno}: row {name!r} repeated,"
                          f" first on line {rows[name][0]}")
        try:
            rows[name] = (lineno, int(start), int(end))
        except ValueError:
            raise Refused(f"{annotation_path}: line {lineno}: start and end must be integers,"
                          f" got {start!r} and {end!r}") from None
    if "genome" not in rows:
        raise AnnotationError("annotation missing the 'genome' length row")
    genome_length = rows.pop("genome")[2]

    sequences = _read_fasta(reference_path)
    annotations: dict[str, OrfAnnotation] = {}
    for name, (_, start, end) in rows.items():
        if name not in sequences:
            raise AnnotationError(f"no reference sequence for ORF {name}")
        ann = OrfAnnotation(name, start, end, sequences[name])
        if end > genome_length:
            raise AnnotationError(f"ORF {name} extends past genome length {genome_length}")
        annotations[name] = ann

    for ann in annotations.values():
        _validate_orf(ann)
    if "S" in annotations and genome_length == REFERENCE_GENOME_LENGTH:
        # the real genome's spike must carry the documented residue count;
        # synthetic genomes may ship any well-formed ORF
        if annotations["S"].n_codons != SPIKE_RESIDUES + 1:
            raise AnnotationError(
                f"spike must have {SPIKE_RESIDUES} residues + stop, "
                f"got {annotations['S'].n_codons} codons"
            )
    return GenomeAnnotation(genome_length=genome_length, orfs=annotations)


def _read_fasta(path: Path | str) -> dict[str, str]:
    records: dict[str, tuple[int, list[str]]] = {}  # name -> (line, chunks)
    chunks: list[str] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.startswith(">"):
            name = line[1:].split()[0]
            if name in records:
                raise Refused(f"{path}: line {lineno}: record {name!r} repeated,"
                              f" first on line {records[name][0]}")
            chunks = []
            records[name] = (lineno, chunks)
        elif line.strip():
            chunks.append(line.strip().upper())
    return {name: "".join(chunks) for name, (_, chunks) in records.items()}


def _validate_orf(orf: OrfAnnotation) -> None:
    seq = orf.reference_sequence
    protein = [translate_codon(seq[i : i + 3]) for i in range(0, len(seq), 3)]
    if protein[-1] != "*":
        raise AnnotationError(f"ORF {orf.name} does not end with a stop codon")
    if "*" in protein[:-1]:
        raise AnnotationError(
            f"ORF {orf.name} has an internal stop at residue {protein.index('*') + 1}"
        )


@dataclass(frozen=True)
class GenomeAnnotation:
    genome_length: int
    orfs: dict[str, OrfAnnotation]

    @property
    def spike(self) -> OrfAnnotation:
        return self.orfs["S"]


class SpikeMap:
    """Site-to-codon arithmetic and amino-acid mutation mapping for the spike ORF."""

    def __init__(self, annotation: GenomeAnnotation):
        self.genome_length = annotation.genome_length
        self.orf = annotation.spike
        self._ref = self.orf.reference_sequence

    def codon_of_site(self, site: int) -> tuple[int, int] | None:
        """Return (codon index 1-based, offset 0..2) for sites inside the ORF, else None."""
        if site < 1 or site > self.genome_length:
            raise ValueError(f"site {site} outside genome of length {self.genome_length}")
        if site < self.orf.nt_start or site > self.orf.nt_end:
            return None
        rel = site - self.orf.nt_start
        return rel // 3 + 1, rel % 3

    def site_of_codon(self, codon_idx: int, offset: int = 0) -> int:
        return self.orf.nt_start + (codon_idx - 1) * 3 + offset

    def reference_codon(self, codon_idx: int) -> str:
        if not 1 <= codon_idx <= self.orf.n_codons:
            raise ValueError(f"codon index {codon_idx} out of range")
        rel = (codon_idx - 1) * 3
        return self._ref[rel : rel + 3]

    def aa_mutation_of(
        self, mut: NtMutation, codon_context: str
    ) -> AaMutation | Frameshift | None:
        """Map a nucleotide mutation to its spike amino-acid effect.

        ``codon_context`` is the 3-state codon (may contain ``-``) as it stands
        immediately before this mutation, i.e. with all earlier trajectory
        mutations in the codon already applied.

        Returns None for sites outside spike, synonymous changes, and mutations
        at the stop-codon site (excluded from residue-level prediction). A
        substitution or partial deletion that leaves the codon incomplete
        returns Frameshift. A deletion completing a fully deleted codon returns
        an AaMutation with ``to_aa="-"`` whose ``from_aa`` is the reference
        amino acid at that residue.
        """
        loc = self.codon_of_site(mut.site)
        if loc is None:
            return None
        codon_idx, offset = loc
        if codon_idx == self.orf.n_codons:
            return None
        if len(codon_context) != 3:
            raise ValueError("codon_context must have 3 positions")
        if codon_context[offset] == mut.to:
            return None
        after = codon_context[:offset] + mut.to + codon_context[offset + 1 :]
        if "-" in after:
            if after == "---":
                ref_aa = translate_codon(self.reference_codon(codon_idx))
                return AaMutation("S", codon_idx, ref_aa, "-")
            return Frameshift("S", codon_idx)
        to_aa = translate_codon(after)
        if "-" in codon_context:
            # substitution inside a partially deleted codon: still frameshifted
            return Frameshift("S", codon_idx)
        from_aa = translate_codon(codon_context)
        if to_aa == from_aa:
            return None
        return AaMutation("S", codon_idx, from_aa, to_aa)


class SpikeState:
    """Mutable spike-span genome state for replaying a mutation trajectory in order.

    effect_of() gives a mutation's amino-acid effect against the codon context
    in force just before it, and write() then puts the mutation in force.
    """

    def __init__(self, spike_map: SpikeMap):
        self.map = spike_map
        self._bases = list(spike_map.orf.reference_sequence)

    def codon_context(self, codon_idx: int) -> str:
        rel = (codon_idx - 1) * 3
        return "".join(self._bases[rel : rel + 3])

    def effect_of(self, mut: NtMutation) -> AaMutation | Frameshift | None:
        """The amino-acid effect of mut against the codon context in force,
        without applying it."""
        loc = self.map.codon_of_site(mut.site)
        if loc is None:
            return None
        return self.map.aa_mutation_of(mut, self.codon_context(loc[0]))

    def sources_of(self, change: AaMutation) -> list[NtMutation]:
        """Every single-site mutation whose effect, against the codons in
        force, is ``change``; only the three sites of its codon can make it,
        each with a state other than the base in force there."""
        context = self.codon_context(change.pos)
        candidates = (
            NtMutation(self.map.site_of_codon(change.pos, offset), state)
            for offset, base in enumerate(context) for state in NT_STATES if state != base
        )
        return [m for m in candidates if self.map.aa_mutation_of(m, context) == change]

    def write(self, mut: NtMutation) -> None:
        """Apply mut without computing its effect; a site outside the spike
        span changes nothing."""
        if self.map.codon_of_site(mut.site) is not None:
            self._bases[mut.site - self.map.orf.nt_start] = mut.to

    def apply(self, mut: NtMutation) -> AaMutation | Frameshift | None:
        effect = self.effect_of(mut)
        self.write(mut)
        return effect


def reachable_aa_mutations(spike_map: SpikeMap) -> set[AaMutation]:
    """All distinct amino-acid mutations reachable from the reference by one
    nucleotide substitution.

    Frameshifts and stop-codon-site changes are excluded; substitutions to a
    stop are included as nonsense mutations.
    """
    out: set[AaMutation] = set()
    for codon_idx in range(1, spike_map.orf.n_codons):
        context = spike_map.reference_codon(codon_idx)
        for offset in range(3):
            site = spike_map.site_of_codon(codon_idx, offset)
            for base in BASES:
                if base == context[offset]:
                    continue
                effect = spike_map.aa_mutation_of(NtMutation(site, base), context)
                if isinstance(effect, AaMutation):
                    out.add(effect)
    return out
