"""Shared numeric constants, pinned at 30 significant digits.

Every module reads from this single table so that identical quantities are
bit-identical across the package. The literals round to the nearest IEEE-754
double on parse; derived members are computed from table entries with exact
double arithmetic where possible.
"""

import math

# Primary constants, 30 significant digits.
PI: float = 3.14159265358979323846264338328
TWO_PI: float = 6.28318530717958647692528676656
EULER_GAMMA: float = 0.577215664901532860606512090082
LOG_2: float = 0.693147180559945309417232121458
LOG_3: float = 1.09861228866810969139524523692
LOG_PI: float = 1.14472988584940017414342735135
LOG_2PI: float = 1.83787706640934548356065947281
LOG_4PI: float = 2.53102424696929079297789159427

# Real part of the zero-reciprocal sum for the completed zeta function,
# 0.5*log(4*pi) - 1 - gamma/2. Thirty-digit reference:
# -0.0230957089661210338143102479065
B_ZERO_SUM: float = 0.5 * LOG_4PI - 1.0 - 0.5 * EULER_GAMMA

# Scale factors of the two main bound formulas.
TWO_E_GAMMA: float = 2.0 * math.exp(EULER_GAMMA)          # 2 e^gamma
TWELVE_E_GAMMA_OVER_PI2: float = 12.0 * math.exp(EULER_GAMMA) / (PI * PI)
