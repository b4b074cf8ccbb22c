#include "library/standard_cells.hpp"

namespace lily {

namespace {

// Gates with at most 3 inputs. Field order of PIN lines:
//   PIN <pin> <phase> <input-load> <max-load> <r-block> <r-fanout> <f-block> <f-fanout>
constexpr std::string_view kTinyGenlib = R"(# msu_tiny: 1u-scaled MSU-like standard cells, max 3 inputs
GATE inv1   1.0  O=!a;
PIN * INV 0.08 1.2 0.35 2.00 0.25 1.60
GATE inv2   1.6  O=!a;
PIN * INV 0.12 2.4 0.30 1.00 0.22 0.80
GATE buf1   2.0  O=a;
PIN * NONINV 0.08 1.6 0.70 1.80 0.60 1.50
GATE nand2  2.0  O=!(a*b);
PIN * INV 0.10 1.2 0.50 2.60 0.45 2.20
GATE nand3  3.0  O=!(a*b*c);
PIN * INV 0.11 1.1 0.65 3.00 0.58 2.60
GATE nor2   2.2  O=!(a+b);
PIN * INV 0.10 1.1 0.55 3.00 0.48 2.40
GATE nor3   3.4  O=!(a+b+c);
PIN * INV 0.11 1.0 0.75 3.60 0.66 3.00
GATE and2   3.0  O=a*b;
PIN * NONINV 0.09 1.4 0.80 2.00 0.72 1.70
GATE or2    3.0  O=a+b;
PIN * NONINV 0.09 1.4 0.85 2.10 0.76 1.80
GATE aoi21  3.2  O=!(a*b+c);
PIN * INV 0.11 1.0 0.70 3.20 0.62 2.70
GATE oai21  3.2  O=!((a+b)*c);
PIN * INV 0.11 1.0 0.72 3.20 0.64 2.70
GATE xor2   5.0  O=a*!b+!a*b;
PIN * UNKNOWN 0.13 1.1 1.10 3.40 1.00 3.00
GATE xnor2  5.0  O=a*b+!a*!b;
PIN * UNKNOWN 0.13 1.1 1.10 3.40 1.00 3.00
)";

// Additional gates with 4..6 inputs (the "big library" extends the tiny one).
constexpr std::string_view kBigExtraGenlib = R"(GATE nand4  4.2  O=!(a*b*c*d);
PIN * INV 0.12 1.0 0.82 3.40 0.74 3.00
GATE nor4   4.8  O=!(a+b+c+d);
PIN * INV 0.12 0.9 0.95 4.20 0.85 3.60
GATE and3   4.0  O=a*b*c;
PIN * NONINV 0.10 1.3 0.95 2.10 0.86 1.80
GATE or3    4.0  O=a+b+c;
PIN * NONINV 0.10 1.3 1.00 2.20 0.90 1.90
GATE and4   5.0  O=a*b*c*d;
PIN * NONINV 0.11 1.2 1.10 2.20 1.00 1.90
GATE or4    5.2  O=a+b+c+d;
PIN * NONINV 0.11 1.2 1.18 2.30 1.06 2.00
GATE aoi22  4.4  O=!(a*b+c*d);
PIN * INV 0.12 0.9 0.85 3.50 0.76 3.00
GATE oai22  4.4  O=!((a+b)*(c+d));
PIN * INV 0.12 0.9 0.87 3.50 0.78 3.00
GATE aoi211 4.2  O=!(a*b+c+d);
PIN * INV 0.12 0.9 0.82 3.50 0.74 3.00
GATE oai211 4.2  O=!((a+b)*c*d);
PIN * INV 0.12 0.9 0.84 3.50 0.75 3.00
GATE nand5  5.4  O=!(a*b*c*d*e);
PIN * INV 0.13 0.9 1.00 3.80 0.90 3.40
GATE nor5   6.0  O=!(a+b+c+d+e);
PIN * INV 0.13 0.8 1.15 4.80 1.04 4.10
GATE nand6  6.4  O=!(a*b*c*d*e*f);
PIN * INV 0.14 0.8 1.18 4.20 1.06 3.80
GATE nor6   7.0  O=!(a+b+c+d+e+f);
PIN * INV 0.14 0.8 1.35 5.40 1.22 4.60
GATE aoi221 5.6  O=!(a*b+c*d+e);
PIN * INV 0.13 0.8 1.00 3.90 0.90 3.40
GATE oai221 5.6  O=!((a+b)*(c+d)*e);
PIN * INV 0.13 0.8 1.02 3.90 0.92 3.40
GATE aoi222 6.8  O=!(a*b+c*d+e*f);
PIN * INV 0.14 0.8 1.15 4.30 1.04 3.80
GATE oai222 6.8  O=!((a+b)*(c+d)*(e+f));
PIN * INV 0.14 0.8 1.17 4.30 1.06 3.80
GATE buf2   3.2  O=a;
PIN * NONINV 0.09 3.2 0.85 0.70 0.75 0.60
GATE nand2x2 3.0 O=!(a*b);
PIN * INV 0.14 2.4 0.55 1.30 0.50 1.10
GATE nand3x2 4.4 O=!(a*b*c);
PIN * INV 0.15 2.2 0.72 1.50 0.64 1.30
GATE nor2x2  3.3 O=!(a+b);
PIN * INV 0.14 2.2 0.60 1.50 0.53 1.20
GATE and2x2  4.4 O=a*b;
PIN * NONINV 0.13 2.8 0.88 1.00 0.79 0.85
GATE aoi21x2 4.8 O=!(a*b+c);
PIN * INV 0.15 2.0 0.77 1.60 0.68 1.35
GATE mux21  4.6  O=!s*a+s*b;
PIN * UNKNOWN 0.12 1.0 1.00 3.00 0.90 2.60
GATE and2or2 5.0 O=(a*b)+(c*d);
PIN * NONINV 0.11 1.2 1.12 2.40 1.02 2.10
)";

const std::string kBigGenlib = std::string("# msu_big: msu_tiny plus 4..6 input gates\n") +
                               std::string(kTinyGenlib.substr(kTinyGenlib.find('\n') + 1)) +
                               std::string(kBigExtraGenlib);

}  // namespace

std::string_view msu_tiny_genlib() { return kTinyGenlib; }

std::string_view msu_big_genlib() { return kBigGenlib; }

Library load_msu_tiny() {
    Library lib = read_genlib_checked(msu_tiny_genlib(), "msu_tiny").take_or_raise();
    lib.validate();
    return lib;
}

Library load_msu_big() {
    Library lib = read_genlib_checked(msu_big_genlib(), "msu_big").take_or_raise();
    lib.validate();
    return lib;
}

}  // namespace lily
