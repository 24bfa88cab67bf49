"""Home PV+battery outage-resiliency toolkit.

A numpy/scipy library plus a batch CLI: device models of a rooftop PV array,
an energy-bucket battery and a refrigerator thermal RC model; a self-contained
MILP engine (bounded-variable simplex + branch-and-bound); an optimizing
receding-horizon controller and a rule-based baseline; a closed-loop plant
simulator with resiliency metrics; and standalone-system sizing.
"""

__version__ = "0.1.0"

from .config import (  # noqa: F401
    BatteryParams,
    FridgeParams,
    HouseTempParams,
    MpcParams,
    PvArrayParams,
    SystemConfig,
    default_config,
    load_config,
    save_config,
)
from .schedule import SecondaryLoadSchedule, build_secondary_profile  # noqa: F401
from .weather import (  # noqa: F401
    WeatherSeries,
    parse_weather_csv,
    resample,
    synthesize_weather,
    write_weather_csv,
)
from .scenario import (  # noqa: F401
    ForecastWindow,
    HouseTemperatureTrace,
    Scenario,
    build_scenario,
    load_house_trace_csv,
    sinusoid_house_temperature,
)
from .devices import (  # noqa: F401
    FridgeDiscretization,
    battery_step,
    fridge_discretize,
    fridge_energy,
    fridge_step,
    module_temperature,
    pv_energy,
    pv_potential,
)
from .milp import (  # noqa: F401
    MilpModel,
    MilpSolution,
    SolverOptions,
    check_solution,
    solve_lp,
    solve_milp,
)
from .mpc import (  # noqa: F401
    ControlCommand,
    MpcController,
    MpcPlan,
    build_mpc_milp,
    gamma_to_discrete,
    plan,
)
from .baseline import (  # noqa: F401
    BaselineController,
    BaselineState,
    baseline_dispatch,
    deadband_fridge,
)
from .plant import (  # noqa: F401
    PlantFlows,
    PlantState,
    SimulationTrace,
    initial_plant_state,
    plant_step,
    read_trace_csv,
    run_closed_loop,
)
from .metrics import ResiliencyMetrics, compute_metrics, load_metrics, save_metrics  # noqa: F401
from .sizing import SizingSpec, SystemSize, scale_config_to_size, size_ladder, size_system  # noqa: F401
from .errors import ConfigError, DataError, InfeasiblePlanError, MilpError, OffgridError  # noqa: F401
