//! Error types shared across the workspace.

/// Errors produced while validating or assembling model data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A record carried a counter that moved backwards without a reboot
    /// marker — corrupt data.
    CounterRegression {
        /// Offending device.
        device: crate::DeviceId,
        /// Sequence number of the offending record.
        seq: u32,
    },
    /// A record referenced an unknown device.
    UnknownDevice(crate::DeviceId),
    /// Records for a device were not in time order after ingest sorting —
    /// indicates a server bug.
    OutOfOrder {
        /// Offending device.
        device: crate::DeviceId,
    },
    /// Dataset metadata was inconsistent (e.g. a bin time outside the
    /// campaign window).
    Inconsistent(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::CounterRegression { device, seq } => {
                write!(f, "counter regression on {device} at seq {seq}")
            }
            ModelError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            ModelError::OutOfOrder { device } => write!(f, "records out of order for {device}"),
            ModelError::Inconsistent(msg) => write!(f, "inconsistent dataset: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceId;

    #[test]
    fn display_messages() {
        let e = ModelError::CounterRegression { device: DeviceId(3), seq: 7 };
        assert!(e.to_string().contains("dev00003"));
        assert!(e.to_string().contains("seq 7"));
        assert!(ModelError::Inconsistent("x".into()).to_string().contains("x"));
    }

    #[test]
    fn device_errors_name_the_device() {
        assert_eq!(ModelError::UnknownDevice(DeviceId(12)).to_string(), "unknown device dev00012");
        assert_eq!(
            ModelError::OutOfOrder { device: DeviceId(5) }.to_string(),
            "records out of order for dev00005"
        );
    }
}
