"""Seeded input generation for the end-to-end benchmark.

Every workload's table contents come from fixed-geometry generators
(ported from the shapes of ``repro.datasets.generators`` and the schema
sweep's star schema, so a change to the program's own generators cannot
move the benchmark's inputs).  The benchmark seed then draws one
character-level bijection -- digits onto digits, upper-case letters onto
upper-case letters, lower-case onto lower-case -- that is applied to every
cell of every table.  A bijection applied to all values alike keeps every
equality and inclusion between values, so the seed changes the bytes the
profiler reads (and every fingerprint), but not the dependency geometry:
the expected output and the work counters are the same for every seed,
and only the timing noise differs between runs.
"""

from __future__ import annotations

import csv
import hashlib
import random
import string
from pathlib import Path

#: Geometry seed of the generators; the benchmark seed only picks the
#: value bijection (see the module docstring).
GEOMETRY_SEED = 1


def _mix(*parts: object) -> int:
    """Deterministic 32-bit FNV-style hash of the parts' text."""
    value = 2166136261
    for part in parts:
        for char in str(part):
            value = ((value ^ ord(char)) * 16777619) & 0xFFFFFFFF
        value = (value * 31 + 7) & 0xFFFFFFFF
    return value


def cipher(seed: int) -> dict[int, str]:
    """The seed's value bijection as a ``str.translate`` table."""
    rng = random.Random(f"perfbench-cipher-{seed}")
    table: dict[int, str] = {}
    for alphabet in (string.digits, string.ascii_uppercase, string.ascii_lowercase):
        image = list(alphabet)
        rng.shuffle(image)
        table.update((ord(a), b) for a, b in zip(alphabet, image))
    return table


def write_csv(path: Path, header: list[str], rows, table: dict[int, str]) -> str:
    """Write ``rows`` through the bijection; return the file's SHA-256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([value.translate(table) for value in row] for row in rows)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- table shapes --------------------------------------------------------------

_ORGANISMS = [
    ("Homo sapiens", "Eukaryota;Metazoa;Chordata"),
    ("Mus musculus", "Eukaryota;Metazoa;Chordata"),
    ("Rattus norvegicus", "Eukaryota;Metazoa;Chordata"),
    ("Danio rerio", "Eukaryota;Metazoa;Chordata"),
    ("Drosophila melanogaster", "Eukaryota;Metazoa;Arthropoda"),
    ("Caenorhabditis elegans", "Eukaryota;Metazoa;Nematoda"),
    ("Saccharomyces cerevisiae", "Eukaryota;Fungi;Ascomycota"),
    ("Escherichia coli", "Bacteria;Proteobacteria"),
    ("Arabidopsis thaliana", "Eukaryota;Viridiplantae;Streptophyta"),
    ("Gallus gallus", "Eukaryota;Metazoa;Chordata"),
    ("Bos taurus", "Eukaryota;Metazoa;Chordata"),
    ("Sus scrofa", "Eukaryota;Metazoa;Chordata"),
    ("Xenopus laevis", "Eukaryota;Metazoa;Chordata"),
    ("Oryza sativa", "Eukaryota;Viridiplantae;Streptophyta"),
    ("Zea mays", "Eukaryota;Viridiplantae;Streptophyta"),
]


def uniprot(n_rows: int):
    """Protein-annotation table, 10 columns (the ``uniprot_like`` shape):
    two single-column keys, a composite key, FDs between annotation
    columns and a pair-determined ``reviewed`` column."""
    rng = random.Random(GEOMETRY_SEED)
    genes = max(8, n_rows // 12)
    counters: dict[str, int] = {}
    header = ["accession", "entry_name", "organism", "locus", "taxonomy",
              "gene", "length", "mass", "reviewed", "existence"]
    rows = []
    for row in range(n_rows):
        organism, taxonomy = rng.choice(_ORGANISMS)
        locus = counters[organism] = counters.get(organism, 0) + 1
        gene = f"GENE{rng.randrange(genes)}"
        length = rng.randrange(50, 120) * 10
        reviewed = "reviewed" if _mix(organism, gene) & 3 else "unreviewed"
        rows.append([
            f"P{row:07d}",
            f"L{locus:06d}_{organism.split()[0].upper()}",
            organism,
            str(locus),
            taxonomy,
            gene,
            str(length),
            str(length * 110 + 18),
            reviewed,
            f"PE{_mix(gene, reviewed) % 5 + 1}",
        ])
    return header, rows


def ionosphere(n_columns: int, n_rows: int = 351):
    """Radar-measurement table (the ``ionosphere_like`` shape): five phase
    channels forming the one low UCC, saturated +-1 signal channels and
    derived channels, so the lattice below the key stays free and the FD
    search cost grows steeply with the column count."""
    rng = random.Random(GEOMETRY_SEED)
    pulses = rng.sample(range(4**5), n_rows)
    columns = [[(p >> (2 * digit)) & 3 for p in pulses] for digit in range(5)]
    header = [f"phase_{digit}" for digit in range(5)]
    while len(columns) < n_columns:
        position = len(columns)
        if position >= 7 and position % 3 == 1:
            left, right = columns[position - 2], columns[position - 1]
            columns.append([_mix(a, b, position) % 5 - 2 for a, b in zip(left, right)])
            header.append(f"derived_{position:02d}")
        else:
            columns.append([1 if rng.random() < 0.92 else -1 for _ in range(n_rows)])
            header.append(f"signal_{position:02d}")
    return header, [[str(v) for v in row] for row in zip(*columns)]


_COUNTIES = [
    ("ALAMANCE", "Central"), ("BRUNSWICK", "Coastal"), ("BUNCOMBE", "Mountain"),
    ("CABARRUS", "Central"), ("CATAWBA", "Mountain"), ("CUMBERLAND", "Coastal"),
    ("DURHAM", "Central"), ("FORSYTH", "Central"), ("GUILFORD", "Central"),
    ("JOHNSTON", "Coastal"), ("MECKLENBURG", "Central"), ("NEW HANOVER", "Coastal"),
    ("ORANGE", "Central"), ("UNION", "Central"), ("WAKE", "Central"),
]
_FIRST = ["JAMES", "MARY", "JOHN", "PATRICIA", "ROBERT", "JENNIFER", "MICHAEL",
          "LINDA", "WILLIAM", "ELIZABETH", "DAVID", "BARBARA", "RICHARD", "SUSAN",
          "JOSEPH", "JESSICA", "THOMAS", "SARAH", "CHARLES", "KAREN"]
_LAST = ["SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES", "GARCIA", "MILLER",
         "DAVIS", "RODRIGUEZ", "MARTINEZ", "WILSON", "ANDERSON", "TAYLOR",
         "THOMAS", "MOORE", "JACKSON", "MARTIN", "LEE", "PEREZ", "THOMPSON"]


def ncvoter(n_rows: int, n_columns: int = 14):
    """Voter-registry table (the ``ncvoter_like`` shape): id keys,
    composite keys, hierarchies and pair-determined codes -- the input
    heavy in the FD-minimization and shadowed-FD phases."""
    rng = random.Random(GEOMETRY_SEED)
    county_idx = [rng.randrange(len(_COUNTIES)) for _ in range(n_rows)]
    county = [_COUNTIES[i][0] for i in county_idx]
    zip_code = [f"27{rng.randrange(40):03d}" for _ in range(n_rows)]
    house = [str(rng.randrange(1, max(50, n_rows // 6))) for _ in range(n_rows)]
    first = [rng.choice(_FIRST) for _ in range(n_rows)]
    last = [rng.choice(_LAST) for _ in range(n_rows)]
    gender = [rng.choice(["M", "F", "U"]) for _ in range(n_rows)]
    party = [rng.choice(["DEM", "REP", "UNA", "LIB"]) for _ in range(n_rows)]
    decade = [1930 + 10 * rng.randrange(8) for _ in range(n_rows)]
    reg_num = list(range(100000, 100000 + n_rows))
    rng.shuffle(reg_num)
    voter_id = [f"NC{county_idx[r]:02d}{reg_num[r]:07d}" for r in range(n_rows)]
    region = [_COUNTIES[i][1] for i in county_idx]
    city = [f"CITY_{int(z[2:]) % 25:02d}" for z in zip_code]
    age_group = [f"{d}s" for d in decade]
    precinct = [f"{c[:3]}-{_mix(c, p) % 9}" for c, p in zip(county, party)]
    columns = [voter_id, [str(n) for n in reg_num], county, region, zip_code,
               city, house, first, last, gender, [str(d) for d in decade],
               age_group, party, precinct]
    header = ["voter_id", "registration_num", "county", "region", "zip_code",
              "city", "house_number", "first_name", "last_name", "gender",
              "birth_decade", "age_group", "party", "precinct"]
    return header[:n_columns], [list(row) for row in zip(*columns[:n_columns])]


def star_schema(root: Path, children: int, child_rows: int, copies: int,
                voter_rows: int, table: dict[int, str]) -> dict[str, str]:
    """The schema sweep's star shape: a ``customers`` parent, FK child
    tables, byte-identical copies of the first children and one
    ``ncvoter``-shaped table.  Returns ``{file name: sha256}``."""
    rng = random.Random(GEOMETRY_SEED)
    digests = {}
    parent_ids = [f"C{i:05d}" for i in range(max(child_rows // 4, 8))]
    digests["customers.csv"] = write_csv(
        root / "customers.csv", ["id", "region", "tier"],
        [[pid, rng.choice("nsew"), str(rng.randint(1, 3))] for pid in parent_ids],
        table,
    )
    for index in range(1, children + 1):
        header = [
            "customer_id" if rng.random() < 0.6 else f"t{index}_key",
            f"t{index}_a", f"t{index}_b", f"t{index}_c",
        ]
        rows = [
            [
                rng.choice(parent_ids) if header[0] == "customer_id" else f"K{row}",
                str(rng.randint(0, 40)),
                rng.choice("xyzuvw"),
                "" if rng.random() < 0.05 else str(rng.randint(0, 9)),
            ]
            for row in range(child_rows)
        ]
        name = f"table_{index:02d}.csv"
        digests[name] = write_csv(root / name, header, rows, table)
        if index <= copies:
            copy = f"zz_copy_{index - 1}_{name}"
            (root / copy).write_bytes((root / name).read_bytes())
            digests[copy] = digests[name]
    header, rows = ncvoter(voter_rows)
    digests["voters.csv"] = write_csv(root / "voters.csv", header, rows, table)
    return digests
