"""gridseal: privacy-preserving meter aggregation and decentralized
attribute-based access control for grid telemetry.

Meters encrypt readings additively so gateways aggregate ciphertexts without
seeing values; the substation terminal stores records in an untrusted
repository under attribute policies, with keys issued by independent
authorities and revocation by secret rotation.
"""

from .abe import (
    AbeCiphertext,
    AccessDenied,
    EncryptionState,
    KdcKeyring,
    PublicShare,
    UserKeyring,
    abe_decrypt,
    abe_encrypt,
    issue_key,
    kdc_setup,
    revoke,
    verify_user_key,
)
from .aggregation import (
    AggregationTopology,
    AttributeTag,
    MeterPacket,
    TopologyNode,
    gateway_aggregate,
    make_packet,
    packet_from_bytes,
    packet_to_bytes,
    rtu_open,
    run_pipeline,
)
from .lsss import (
    AccessTree,
    Gate,
    Leaf,
    LsssProgram,
    PolicySyntaxError,
    compile_lsss,
    evaluate_tree,
    parse_policy,
    policy_text,
    solve_for_rows,
    solve_reconstruction,
    tree_attributes,
    verify_reconstruction,
)
from .paillier import (
    MalformedCiphertextError,
    PaillierCiphertext,
    PaillierPublicKey,
    PaillierSecretKey,
    paillier_add,
    paillier_decrypt,
    paillier_encrypt,
    paillier_keygen,
)
from .pairing import (
    DEFAULT_Q_160,
    BackendMismatchError,
    GroupElementG,
    GroupElementGT,
    PairingBackend,
    PairingContext,
    ReferenceBackend,
    ctx_new,
    register_backend,
)

__version__ = "0.1.0"
