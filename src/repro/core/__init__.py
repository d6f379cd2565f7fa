"""The paper's contribution: naive and probabilistic top-k selection protocols."""

from .driver import (
    ANONYMOUS_NAIVE,
    BACKENDS,
    KERNEL,
    NAIVE,
    PROBABILISTIC,
    PROTOCOLS,
    SESSION,
    DriverError,
    KernelUnsupported,
    RunConfig,
    derived_rounds,
    run_many_on_vectors,
    run_protocol_on_vectors,
    run_topk_queries,
    run_topk_query,
    with_protocol,
)
from .kernel import KernelRun, kernel_refusal
from .session import PreparedQuery, ProtocolSession, prepare_query_vectors
from .max_protocol import ProbabilisticMaxAlgorithm
from .naive import NaiveMaxAlgorithm, NaiveTopKAlgorithm
from .noise import HighBiasedNoise, LowBiasedNoise, NoiseStrategy, UniformNoise
from .params import ParamError, ProtocolParams, minimum_rounds
from .results import ProtocolResult
from .serialization import (
    SerializationError,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from .sampling import SamplingError, random_value_in
from .schedule import (
    PAPER_DEFAULT_SCHEDULE,
    ConstantCutoffSchedule,
    ExponentialSchedule,
    LinearSchedule,
    Schedule,
    ScheduleError,
)
from .topk_protocol import ProbabilisticTopKAlgorithm
from .vectors import (
    VectorError,
    is_sorted_desc,
    merge_topk,
    multiset_contains,
    multiset_difference,
    multiset_intersection_size,
    pad_to_k,
    validate_vector,
)

__all__ = [
    "ANONYMOUS_NAIVE",
    "BACKENDS",
    "ConstantCutoffSchedule",
    "DriverError",
    "ExponentialSchedule",
    "HighBiasedNoise",
    "KERNEL",
    "KernelRun",
    "KernelUnsupported",
    "LowBiasedNoise",
    "LinearSchedule",
    "NAIVE",
    "NaiveMaxAlgorithm",
    "NoiseStrategy",
    "NaiveTopKAlgorithm",
    "PAPER_DEFAULT_SCHEDULE",
    "PROBABILISTIC",
    "PROTOCOLS",
    "ParamError",
    "PreparedQuery",
    "ProbabilisticMaxAlgorithm",
    "ProbabilisticTopKAlgorithm",
    "ProtocolParams",
    "ProtocolResult",
    "ProtocolSession",
    "RunConfig",
    "SESSION",
    "SamplingError",
    "SerializationError",
    "Schedule",
    "ScheduleError",
    "UniformNoise",
    "VectorError",
    "derived_rounds",
    "is_sorted_desc",
    "kernel_refusal",
    "load_result",
    "merge_topk",
    "minimum_rounds",
    "multiset_contains",
    "multiset_difference",
    "multiset_intersection_size",
    "pad_to_k",
    "prepare_query_vectors",
    "random_value_in",
    "result_from_dict",
    "result_to_dict",
    "run_many_on_vectors",
    "run_protocol_on_vectors",
    "run_topk_queries",
    "run_topk_query",
    "save_result",
    "validate_vector",
    "with_protocol",
]
