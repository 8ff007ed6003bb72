"""Shared deterministic fixture: a synthetic primary-aluminum benchmark.

Three documents describe a fictional smelter in enough detail to cover ten
ground-truth facts. The numbers are chosen so every conversion and product
is exact in binary floating point, which lets the perfect-mock run assert
zero deviation without tolerance fudging:

    electricity   13500 kWh x 0.5   = 6750
    anode           420 kg  x 2.0   =  840
    alumina           2 t   x 1500  = 3000
    natural gas     600 kWh x 0.25  =  150
    transport       500 km  x 0.125 =   62.5
    total                            10802.5  kgCO2e per t

The variant mock omits the fluoride fact (dropping retrieval to 9/10) and
inflates natural gas to 660 kWh (+10%), perturbing the total to 10817.5.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from types import SimpleNamespace

_DOC_SMELTER_ENERGY = """\
Energy profile of the Aurora Creek primary aluminum smelter

The Aurora Creek reduction plant produces primary aluminum by Hall-Heroult
electrolysis in two potlines of 144 cells each. Alumina dissolved in a
molten cryolite bath is reduced at the cathode while prebaked carbon anodes
are consumed at the top of the cell. Because the process runs continuously,
the energy ledger below is normalized to one metric ton of hot metal
tapped from the cells, which is also the functional unit used in every
reported intensity figure in this document.

Direct current demand dominates the site balance. Across the most recent
audited operating year the potlines drew 13.5 MWh of electricity per ton
of primary aluminum, measured at the rectifier output so that conversion
losses in the high-voltage substation are excluded from the intensity
figure. Month-to-month variation stayed within three percent of that mean,
driven mostly by anode effect frequency and by scheduled cell relining.

The rectifier groups convert incoming 220 kV alternating current for the
potline busbars. Busbar and collector losses are metered separately and
are already included in the reported electricity figure. Auxiliary loads
such as pot tending machines, fume treatment fans, and compressed air are
fed from a distinct 11 kV board and amount to a small single-digit share
of the direct-current demand; they are tracked in the site utility ledger
rather than in the electrolysis intensity figure.

Thermal energy enters the balance in the casthouse. Holding furnaces and
launder preheating burn pipeline natural gas equivalent to 600 kWh per ton
of aluminum. The burners were converted from heavy fuel oil a decade ago,
and the gas meters are calibrated quarterly against the supplier's fiscal
metering station, so the casthouse figure carries the same audit status as
the electrical one.

Cell performance explains most of the electrical intensity. The potlines
operated at a current efficiency of 94 percent for the audited year,
meaning that six percent of the charge passed did not result in metal and
was lost to reoxidation and parasitic reactions. Raising current
efficiency by a single point would save roughly 140 kWh per ton at
constant cell voltage, which is why the control room treats it as the
primary operational indicator.

Bath chemistry is held close to its eutectic to limit the energy needed to
keep the electrolyte molten. The operating target for the smelting
temperature is 960 C, measured daily in every cell with immersion
thermocouples. Excursions beyond ten degrees above target trigger a
chemistry review, because superheat wastes energy and accelerates sidewall
wear, while operating too cold risks sludge formation under the metal pad.

The site participates in a demand response program with the regional grid
operator. During curtailment events the line amperage is reduced by up to
five percent for at most four hours, which the cells tolerate without
measurable loss of bath temperature. Energy accounting treats curtailed
hours no differently; the intensity figures above average over the whole
operating year including curtailment.

Measurement methodology follows the site's published energy protocol.
Potline electricity is sampled at one-minute resolution and integrated to
daily totals, while metal production is taken from the weighbridge records
of tapped crucibles corrected for skim and dross returns. The quotient of
the two series, aggregated over the year, yields the reported megawatt
hour figure; the same denominators are used for the gas and consumable
intensities so the ratios remain comparable across documents.

Looking forward, the engineering group has piloted slotted anodes and a
new alumina point-feeding schedule in one section of potline B. Early
results suggest a modest reduction in anode effect frequency. No claim
from the pilot is included in the audited figures quoted above; future
revisions of this document will restate the energy profile when the pilot
graduates to full-line deployment.

Anode effects deserve a dedicated note because they couple the energy and
emissions ledgers. When alumina concentration in a cell falls too low, the
cell voltage spikes and perfluorocarbon gases form at the anode. The pot
control system detects the voltage signature within seconds and responds
with a feeding burst and an automated kill sequence. Effect frequency for
the audited year averaged well under one effect per cell-day, and each
event is logged with its duration so the process engineers can reconstruct
both the wasted energy and the associated process gas estimate.

Fume treatment is the largest auxiliary consumer. Each potline exhausts to
a dry scrubber where fresh alumina adsorbs fluorides before being fed to
the cells, and the induced draft fans that move that gas run continuously.
Their consumption appears in the auxiliary ledger mentioned earlier, not
in the electrolysis figure, but the distinction is worth restating because
external reviewers frequently ask whether scrubber fan power hides inside
the headline megawatt hour number. It does not.

Compressed air supplies the crust breakers and point feeder actuators.
The compressor house meters its own consumption, and leak surveys are run
twice a year with ultrasonic detectors because feeder air demand rises
measurably when cylinder seals wear. The air system is a small energy
line, yet it earns a paragraph here because feeder reliability directly
influences anode effect frequency and therefore the quality of the
headline electricity figure.

Cell relining is the main scheduled maintenance activity with an energy
signature. A relined cell is preheated on a graphite resistor bed for
several days before bath-up, and that preheat electricity is charged to
the relining capital ledger by convention, mirroring the treatment of
cathode materials in the companion materials document. Roughly five
percent of cells are relined in a typical year, so the convention moves a
visible but bounded quantity of energy out of the operating intensity.

Seasonality affects the thermal side more than the electrical side. The
casthouse holding furnaces burn measurably more gas in winter when cold
charge material and building heat losses rise, and the 600 kWh per ton
annual figure averages over that swing. The electrical intensity shows no
comparable season signal, because bath temperature is regulated per cell
regardless of ambient conditions and the potrooms are ventilated rather
than heated.

A waste heat recovery study completed last year examined capturing energy
from the cell exhaust gas upstream of the scrubbers. The gas is dilute
and barely above one hundred and forty degrees, so the study concluded
that recovery to district heating is feasible but recovery to power is
not economic at current prices. No recovery credit appears anywhere in
this document; if the district heating project proceeds, its accounting
treatment will be defined in a revision before any figure changes.

The calibration chain behind the energy figures ends at national
standards. Potline current transducers are checked annually against a
reference shunt with a calibration certificate traceable to the national
metrology institute, and the voltage channels are verified with a
calibrated divider at the same interval. The gas fiscal meters carry the
supplier's accreditation. Auditors reviewed the full chain in the most
recent engagement and the certificates are filed with the audit papers.

Ten years of history place the current figures in context. Electrical
intensity has improved by a little over four percent across the decade,
delivered mostly through better alumina feeding and amperage creep with
unchanged cell technology, while the gas figure has been flat within
measurement noise. The historical series is available in the archive
under the same document control scheme as this profile, and restatements,
when they occur, are annotated against the affected years.

Readers combining this profile with the companion documents should use
the conversion conventions stated here. Electrical figures are quoted in
megawatt hours per ton at potline level and convert to kilowatt hours by
a factor of one thousand with no further adjustment; gas figures are
quoted in kilowatt hours of fuel energy on a higher heating value basis
as delivered by the supplier's fiscal metering. No normalization to cell
count, amperage, or alloy mix is applied anywhere in the set, so ratios
between documents can be taken at face value.
"""

_DOC_SMELTER_MATERIALS = """\
Raw material and consumable inputs at Aurora Creek

This document inventories the material side of the mass balance for one
metric ton of primary aluminum at the Aurora Creek smelter. It is the
companion piece to the site's energy profile and relies on the same
weighbridge production denominator, so figures from the two documents can
be combined without re-normalization.

Smelter-grade alumina is the dominant input. The potlines consumed 2 t of
alumina per ton of aluminum produced, delivered by closed conveyor from
the port silos and charged to the cells by point feeders under crust
breakers. The figure is the annual average of silo withdrawals divided by
metal production; it sits slightly above the stoichiometric requirement
because a small fraction reports to fume treatment dust that is recycled
back to the silos on a separate ledger line.

Quality of the feed is monitored at every unloading. The alumina purity
averaged 99.5 percent across the audited year, with soda and calcia as the
principal measured impurities. Purity matters to the footprint discussion
because impurity metals concentrate either in the bath, where they alter
chemistry targets, or in the metal, where they constrain which alloy
families the casthouse can certify.

Carbon enters the process as prebaked anodes from the on-site rodding
shop. Net anode consumption was 420 kg per ton of aluminum, counting the
carbon actually gasified in the cells and excluding the butt fraction that
returns to the paste plant for recycling into new anode blocks. Gross
consumption including butts is naturally higher, and the distinction is
kept explicit in the ledger because only net carbon contributes process
emissions.

Anode quality is controlled upstream in the baking furnaces, where green
blocks spend roughly two weeks coming up to temperature under a protective
packing coke layer. Baked apparent density and air permeability are
sampled from every furnace section. Blocks failing specification are
culled before rodding, which keeps in-cell carbon dusting low and protects
the net consumption figure quoted above.

Bath chemistry consumes fluoride salts. Aluminium fluoride additions
averaged 20 kg per ton of aluminum, dosed by the pot control system to
hold the target bath ratio against hydrolysis losses and the alkaline
impurities brought in with the alumina. Fluoride recovered by the dry
scrubbers from cell gas is credited back to the addition ledger, so the
figure represents net fresh fluoride demand.

The electrolyte composition is summarized by the cryolite ratio. The
operating target for the bath ratio is 1.25, expressed as the mass ratio
convention used by the site laboratory, and the daily bath samples taken
alongside the temperature measurement confirm the potlines held that
target for the audited year. Ratio discipline stabilizes both current
efficiency and fluoride demand, tying this document back to its energy
companion.

Cathode and pot shell materials are excluded from the per-ton inventory
by convention, because a cathode lasts two thousand days or more and its
materials are amortized in the relining capital ledger rather than the
operating mass balance. The same convention applies to ladle refractories
and launder linings in the casthouse, which are tracked as maintenance
stores items.

Casthouse consumables are small but recorded: grain refiner rod, degassing
argon, and filter media together amount to less than two kilograms per ton
of metal and are itemized in an appendix ledger. They are noted here for
completeness of the mass balance narrative, with their ledger codes, so
that auditors can reconcile the totals without chasing unlisted flows.

Sampling and assay procedures follow the site laboratory manual. Alumina
and fluoride lots are sampled per delivery, anodes per baking furnace
section, and bath per cell per day. All assays are retained for ten years,
and the annual averages quoted in this document are computed from the full
retained record rather than from monthly summaries, eliminating rounding
drift between reporting levels.

Upstream of the anode figure sit two purchased carbon raw materials.
Calcined petroleum coke provides the bulk of the anode block and coal tar
pitch binds it, blended in the paste plant at a ratio tuned to the coke's
particle size distribution. Both materials arrive with certificates of
analysis covering sulfur, vanadium, and sodium, since those elements pass
through the anode into either the cell gas or the metal. Their purchased
tonnages reconcile against net anode consumption once butt recycling and
baking losses are accounted for.

Packing coke in the baking furnaces is a consumable in its own right. It
shields the green blocks from air during the bake and is partially burned
in the process, with the burned fraction replaced each cycle. The paste
plant ledger carries packing coke separately from anode coke so that the
net anode carbon figure quoted earlier is not contaminated by furnace
consumables, a distinction that matters when reconciling carbon input to
process emissions.

Alumina handling losses are small and accounted. Conveyor transfer points
and silo vents are served by bag filters whose collected dust returns to
the process, and the annual reconciliation between port receipts, silo
stock change, and cell feed closes within a fraction of a percent. The
residual difference is carried as a handling loss line in the mass
balance rather than silently absorbed into the consumption figure, which
keeps the 2 t alumina number honest against deliveries.

Feeder and crust breaker wear parts are replaced on condition. Chisel
tips, feeder cylinder seals, and crust breaker shafts have service lives
measured in months, and their replacement tonnage is tracked in the
maintenance stores ledger. None of this hardware enters the per-ton
material inventory, but the maintenance records are cross-referenced here
because hardware condition influences feeding accuracy and therefore both
fluoride demand and anode effect frequency.

Bath inventory is managed as a closed loop wherever possible. Tapped bath
from cell digouts is crushed and returned, and the dry scrubbers return
fluoride values continuously as described earlier. Fresh cryolite makeup
is rare in mature potlines and the audited year required none, which is
why cryolite does not appear as a consumption line alongside aluminium
fluoride in this inventory.

The laboratory participates in an inter-laboratory round robin twice a
year. Alumina purity, bath ratio, and anode density assays are exchanged
with three peer smelter laboratories and the certified reference supplier,
and the most recent two exchanges placed the site laboratory within one
standard deviation of the consensus on every method relevant to figures
quoted in this document. Round robin reports are archived with the assay
records under the same retention policy.

Casthouse dross deserves a closing note because it carries metal out of
the mass balance temporarily. Skimmed dross is cooled under inert cover
and shipped to a tolling processor, and recovered metal returns within
the same reporting year as remelt sows. The production denominator used
throughout these documents counts tapped hot metal net of that loop, so
dross recovery neither inflates nor deflates the per-ton figures, and
the tolling contract's transport leg is included in the logistics
document's weighted distance.
"""

_DOC_SMELTER_LOGISTICS = """\
Inbound logistics and emission factor sourcing for Aurora Creek

The final document in the Aurora Creek set covers transport of the major
raw materials and records where each emission factor used in the site's
carbon ledger comes from. Together with the energy and materials profiles
it completes the cradle-to-gate picture for one metric ton of primary
aluminum.

Alumina arrives at the coastal port by bulk carrier and moves inland by
electrified rail. The weighted average transport distance chargeable to a
ton of aluminum is 500 km, combining the rail leg for alumina with the
shorter truck legs for fluoride salts and anode raw materials, each leg
weighted by the tonnage it carries per ton of metal produced. The figure
excludes outbound metal shipment, which belongs to the customer's scope
under the cradle-to-gate boundary.

Rail is the preferred mode for every bulk flow above ten thousand tons a
year. The siding accepts eighty-wagon rakes, and the unloading shed tips
directly into the port silo conveyor, so no intermediate truck shuttle is
needed for alumina. Fluoride and petroleum coke arrive in smaller lots by
road from regional suppliers, and their kilometers are folded into the
weighted distance above rather than listed separately.

The carbon ledger multiplies each inventory line by a factor expressed in
kilograms of carbon dioxide equivalent. Electricity uses the national
grid average supply factor of 0.5 per kilowatt hour, taken from the
current annual publication of the national energy agency rather than a
contractual instrument, so the ledger reflects physical supply. Casthouse
natural gas uses the standard combustion factor of 0.25 per kilowatt hour
of fuel energy from the same publication.

Consumable factors come from supplier declarations verified against the
trade association's life cycle database. Net anode carbon carries 2.0 per
kilogram, covering both the process carbon dioxide released in the cells
and the upstream burden of coke and pitch production. Smelter-grade
alumina carries 1500 per ton, representing bauxite mining, refining fuel,
and caustic soda make-up at the supplying refinery. Rail and road freight
average 0.125 per ton-kilometer normalized to the ton of metal as
described above.

Factor vintages are reviewed every January. When a publication revises a
factor by more than five percent, the ledger is recomputed for the open
reporting year and the change is noted in the revision log; smaller
revisions wait for the annual refresh. Every factor row in the ledger
carries its source citation and vintage year so that an external reviewer
can reproduce the multiplication without access to internal systems.

The boundary of the reported footprint is cradle-to-gate. It begins at
raw material extraction embedded in the supplier factors and ends when
metal leaves the casthouse scale. Use-phase and end-of-life flows, such
as remelting credits for customer scrap, are explicitly out of scope and
no line in the ledger carries them. Auditors check the boundary statement
against the ledger annually as part of the verification engagement.

Verification is performed to a limited assurance standard by an external
engineer. The engagement samples the metering records behind the energy
document, the assay ledgers behind the materials document, and the factor
citations in this one. The most recent opinion found no exceptions, and
the three documents quoted here are the versions the opinion covers, so
the figures can be cited downstream without re-verification.

Questions about the logistics ledger or factor sourcing should reference
the document control number printed in the footer of the paper original.
Revisions follow the same control process as the companion documents, and
superseded versions remain retrievable from the archive for ten years to
support historical footprint restatements.

Port operations set the rhythm of the inbound chain. Alumina carriers of
forty to sixty thousand tons berth roughly monthly, and the ship unloader
feeds the covered stockpile at a rate that turns a vessel around in under
four days. Stockpile inventory covers about six weeks of potline demand,
a buffer sized after the rail outage three winters ago, and stock levels
are reported weekly to the same ledger that carries the consumption
figures in the materials document.

Rail wagon cycles are tracked because they bound the effective capacity
of the inland leg. A loaded rake leaves the port every second day in
normal operation, completes the five hundred kilometer cycle inside
thirty hours including unloading, and returns empty. Cycle time data
feeds the weighted distance calculation directly, since any rerouting
over the mountain line during track possessions lengthens the alumina
leg and is captured in the annual weighting rather than ignored.

The road fleet serving fluoride and coke deliveries is contracted to two
regional hauliers operating modern vehicles under long-term agreements
that include fuel consumption reporting. Their reported liters per
hundred kilometers reconcile the freight factor applied to the road legs,
and the contracts oblige the hauliers to notify fleet changes so the
factor review each January starts from current equipment rather than
assumptions.

For convenience of reviewers, the factor table applied to the audited
year is recapped: electricity 0.5 per kilowatt hour, natural gas 0.25 per
kilowatt hour of fuel, net anode carbon 2.0 per kilogram, smelter-grade
alumina 1500 per ton, and freight 0.125 per ton-kilometer normalized to
the ton of metal. Each row cites its publication and vintage in the
ledger itself; the recap here carries no independent authority and is
regenerated from the ledger at every revision.

Data quality is scored line by line using the site's adaptation of a
published pedigree matrix. Metered site data scores highest, supplier
declarations next, and literature values lowest, with the score recorded
alongside each ledger row. The audited year contains no literature-scored
rows in the inventory lines that drive the footprint, which is the level
of rigor the verification engagement expects for limited assurance.

A simple uncertainty statement accompanies the ledger. Metered energy
lines carry instrument uncertainty below one percent, weighbridge-based
material lines below two percent, and the freight line, which aggregates
several modes, is assessed at five percent. Propagating those ranges
through the multiplication gives a total uncertainty comfortably inside
plus or minus three percent, dominated by the alumina factor's supplier
declaration rather than by any site measurement.

The revision history of this document set shows two substantive changes
in five years: the gas combustion factor update following the national
publication's methodology change, and the freight reweighting after the
fluoride supplier relocated. Both changes were applied prospectively with
the open year recomputed, per the factor vintage policy, and both are
documented in the revision log with before and after values.

Archive access for all three documents is through the document control
office. External parties receive controlled copies with the same content
as the originals reviewed in the verification engagement, and the office
maintains the cross-reference between document control numbers and ledger
extract versions so that any cited figure can be traced to its source
records without ambiguity.
"""

# (doc_id, title, body) for the three fixture documents.
CORPUS_DOCS = [
    ("aurora-energy", "Aurora Creek energy profile", _DOC_SMELTER_ENERGY),
    ("aurora-materials", "Aurora Creek material inputs", _DOC_SMELTER_MATERIALS),
    ("aurora-logistics", "Aurora Creek logistics and factors", _DOC_SMELTER_LOGISTICS),
]

INDUSTRY = "primary_aluminum"
FUNCTIONAL_UNIT = "1 t primary aluminum"
TRUE_FOOTPRINT = 10802.5

# fact_key -> (true_value, unit)
TRUTHS = {
    "electricity_use": (13500.0, "kWh"),
    "natural_gas_use": (600.0, "kWh"),
    "alumina_consumption": (2.0, "t"),
    "anode_consumption": (420.0, "kg"),
    "fluoride_consumption": (20.0, "kg"),
    "transport_distance": (500.0, "km"),
    "smelting_temperature": (960.0, "C"),
    "current_efficiency": (94.0, "%"),
    "alumina_purity": (99.5, "%"),
    "bath_ratio": (1.25, "ratio"),
}

FACTORS_CSV = """\
activity,factor_kgco2e,canonical_unit,source_note
electricity_use,0.5,kWh,national grid average supply factor
natural_gas_use,0.25,kWh,standard combustion factor per kWh fuel
alumina_consumption,1500.0,t,supplier declaration incl. refining
anode_consumption,2.0,kg,net anode carbon incl. upstream coke and pitch
transport_distance,0.125,km,rail and road freight per ton of metal
"""

# Activities priced by the factor database, i.e. the accounting inventory.
INVENTORY_KEYS = [
    "electricity_use",
    "natural_gas_use",
    "alumina_consumption",
    "anode_consumption",
    "transport_distance",
]

QUERIES = [
    {
        "query_id": "q_energy",
        "query_text": "How much electricity and natural gas does producing one ton "
        "of primary aluminum at Aurora Creek require?",
        "fact_keys": ["electricity_use", "natural_gas_use"],
    },
    {
        "query_id": "q_materials",
        "query_text": "What are the alumina, anode carbon, and fluoride inputs per "
        "ton of primary aluminum?",
        "fact_keys": ["alumina_consumption", "anode_consumption", "fluoride_consumption"],
    },
    {
        "query_id": "q_process",
        "query_text": "State the smelting temperature, current efficiency, alumina "
        "purity, bath ratio, and inbound transport distance.",
        "fact_keys": [
            "smelting_temperature",
            "current_efficiency",
            "alumina_purity",
            "bath_ratio",
            "transport_distance",
        ],
    },
]


def _answer(facts: list[dict]) -> str:
    block = json.dumps({"facts": facts}, indent=2)
    return (
        "Based on the reference information provided:\n"
        "```json\n" + block + "\n```\n"
    )


def _fact(key: str, value, unit: str, sources: list[int]) -> dict:
    return {"key": key, "value": value, "unit": unit, "sources": sources}


# The perfect script reproduces every truth exactly; electricity is stated
# in MWh to exercise unit conversion on the way to the 13500 kWh truth.
PERFECT_SCRIPT = {
    "q_energy": _answer(
        [
            _fact("electricity_use", 13.5, "MWh", [1]),
            _fact("natural_gas_use", 600, "kWh", [2]),
        ]
    ),
    "q_materials": _answer(
        [
            _fact("alumina_consumption", 2, "t", [1]),
            _fact("anode_consumption", 420, "kg", [2]),
            _fact("fluoride_consumption", 20, "kg", [3]),
        ]
    ),
    "q_process": _answer(
        [
            _fact("smelting_temperature", 960, "C", [1]),
            _fact("current_efficiency", 94, "%", [1]),
            _fact("alumina_purity", 99.5, "%", [2]),
            _fact("bath_ratio", 1.25, "ratio", [3]),
            _fact("transport_distance", 500, "km", [4]),
        ]
    ),
}

# Variant: fluoride never extracted (9/10 retrieved) and natural gas
# misread 10% high, which shifts the gas contribution by +15 kgCO2e.
VARIANT_SCRIPT = {
    "q_energy": _answer(
        [
            _fact("electricity_use", 13.5, "MWh", [1]),
            _fact("natural_gas_use", 660, "kWh", [2]),
        ]
    ),
    "q_materials": _answer(
        [
            _fact("alumina_consumption", 2, "t", [1]),
            _fact("anode_consumption", 420, "kg", [2]),
        ]
    ),
    "q_process": PERFECT_SCRIPT["q_process"],
}

VARIANT_TOTAL = 10817.5  # 10802.5 + (660 - 600) * 0.25


def benchmark_obj() -> dict:
    """A fresh benchmark object each call, so a test may edit it in place."""
    return {
        "industry": INDUSTRY,
        "functional_unit": FUNCTIONAL_UNIT,
        "scope": "cradle_to_gate",
        "datasources": [
            {"source": "raw_text", "payload": body, "doc_id": doc_id, "title": title}
            for doc_id, title, body in CORPUS_DOCS
        ],
        "queries": copy.deepcopy(QUERIES),
        "truths": [
            {"fact_key": key, "true_value": value, "unit": unit}
            for key, (value, unit) in TRUTHS.items()
        ],
        "true_footprint": TRUE_FOOTPRINT,
        "factor_db": "factors.csv",
    }


def write_benchmark_tree(root: Path) -> SimpleNamespace:
    """Write benchmark.json, factors.csv, and both mock scripts under root."""
    root = Path(root)
    benchmark = root / "benchmark.json"
    benchmark.write_text(json.dumps(benchmark_obj(), indent=2), encoding="utf-8")
    factors = root / "factors.csv"
    factors.write_text(FACTORS_CSV, encoding="utf-8")
    mock_perfect = root / "mock_perfect.json"
    mock_perfect.write_text(json.dumps(PERFECT_SCRIPT, indent=2), encoding="utf-8")
    mock_variant = root / "mock_variant.json"
    mock_variant.write_text(json.dumps(VARIANT_SCRIPT, indent=2), encoding="utf-8")
    return SimpleNamespace(
        root=root,
        benchmark=benchmark,
        factors=factors,
        mock_perfect=mock_perfect,
        mock_variant=mock_variant,
    )
