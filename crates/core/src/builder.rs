//! A convenience builder for adaptive proxies.

use rapidware_proxy::{FilterSpec, Proxy, ProxyError};
use rapidware_raplets::{AdaptationEngine, FecResponder, LossRateObserver, Observer, Responder};

/// The input/output endpoint pair of one proxy stream, in declaration
/// order, as returned by [`AdaptiveProxyBuilder::build`].
pub type StreamEndpoints = (
    rapidware_streams::DetachableSender<rapidware_packet::Packet>,
    rapidware_streams::DetachableReceiver<rapidware_packet::Packet>,
);

/// Assembles a live [`Proxy`] plus the [`AdaptationEngine`] that adapts it.
///
/// The builder covers the common case exercised by the paper: one or more
/// named streams, an initial filter configuration per stream, and the
/// loss-driven FEC adaptation raplets.
///
/// ```
/// use rapidware::AdaptiveProxyBuilder;
/// use rapidware_proxy::FilterSpec;
///
/// # fn main() -> Result<(), rapidware_proxy::ProxyError> {
/// let (mut proxy, engine, endpoints) = AdaptiveProxyBuilder::new("edge-proxy")
///     .stream("audio")
///     .initial_filter("audio", FilterSpec::new("tap").with_param("name", "uplink"))
///     .with_loss_adaptive_fec()
///     .build()?;
/// assert_eq!(endpoints.len(), 1);
/// assert_eq!(proxy.filter_names("audio")?, vec!["uplink"]);
/// assert_eq!(engine.responder_names().len(), 1);
/// proxy.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AdaptiveProxyBuilder {
    name: String,
    streams: Vec<String>,
    initial_filters: Vec<(String, FilterSpec)>,
    observers: Vec<Box<dyn Observer>>,
    responders: Vec<Box<dyn Responder>>,
}

impl AdaptiveProxyBuilder {
    /// Starts building a proxy with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Adds a stream.
    #[must_use]
    pub fn stream(mut self, name: impl Into<String>) -> Self {
        self.streams.push(name.into());
        self
    }

    /// Installs a filter on a stream as soon as the proxy is built (appended
    /// after previously declared filters on the same stream).
    #[must_use]
    pub fn initial_filter(mut self, stream: impl Into<String>, spec: FilterSpec) -> Self {
        self.initial_filters.push((stream.into(), spec));
        self
    }

    /// Adds the paper's loss-driven FEC adaptation: a loss-rate observer
    /// with hysteresis plus a demand-driven FEC responder.
    #[must_use]
    pub fn with_loss_adaptive_fec(mut self) -> Self {
        self.observers
            .push(Box::new(LossRateObserver::paper_default()));
        self.responders.push(Box::new(FecResponder::paper_default()));
        self
    }

    /// Adds a custom observer raplet.
    #[must_use]
    pub fn observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Adds a custom responder raplet.
    #[must_use]
    pub fn responder(mut self, responder: Box<dyn Responder>) -> Self {
        self.responders.push(responder);
        self
    }

    /// Builds the proxy, its adaptation engine, and the per-stream
    /// endpoints, in the order the streams were declared.
    ///
    /// # Errors
    ///
    /// Returns any error raised while creating streams or instantiating the
    /// initial filters.
    pub fn build(
        self,
    ) -> Result<(Proxy, AdaptationEngine, Vec<StreamEndpoints>), ProxyError> {
        let mut proxy = Proxy::new(self.name);
        let mut endpoints = Vec::new();
        for stream in &self.streams {
            endpoints.push(proxy.add_stream_pooled(stream.clone())?);
        }
        for (stream, spec) in &self.initial_filters {
            let position = proxy.filter_names(stream)?.len();
            proxy.insert_filter(stream, position, spec)?;
        }
        let mut engine = AdaptationEngine::new();
        for observer in self.observers {
            engine.add_observer(observer);
        }
        for responder in self.responders {
            engine.add_responder(responder);
        }
        Ok((proxy, engine, endpoints))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_netsim::SimTime;
    use rapidware_raplets::{apply_to_proxy, LinkSample};

    #[test]
    fn builds_streams_and_initial_filters_in_order() {
        let (mut proxy, _engine, endpoints) = AdaptiveProxyBuilder::new("p")
            .stream("audio")
            .stream("video")
            .initial_filter("audio", FilterSpec::new("fec-encoder"))
            .initial_filter("audio", FilterSpec::new("tap"))
            .initial_filter("video", FilterSpec::new("rate-limiter"))
            .build()
            .unwrap();
        assert_eq!(endpoints.len(), 2);
        assert_eq!(
            proxy.filter_names("audio").unwrap(),
            vec!["fec-encoder(6,4)", "tap"]
        );
        assert_eq!(proxy.filter_names("video").unwrap().len(), 1);
        proxy.shutdown().unwrap();
    }

    #[test]
    fn adaptive_fec_raplets_drive_the_built_proxy() {
        let (mut proxy, mut engine, _endpoints) = AdaptiveProxyBuilder::new("p")
            .stream("audio")
            .with_loss_adaptive_fec()
            .build()
            .unwrap();
        // Several moderately lossy windows (3%) push the smoothed estimate
        // over the 2% threshold; apply the resulting actions to the proxy.
        for second in 1..=5 {
            let actions = engine.ingest(&LinkSample::new(SimTime::from_secs(second), 1000, 970));
            apply_to_proxy(&proxy, "audio", &actions).unwrap();
        }
        assert_eq!(proxy.filter_names("audio").unwrap(), vec!["fec-encoder(6,4)"]);
        proxy.shutdown().unwrap();
    }

    #[test]
    fn unknown_stream_in_initial_filter_is_an_error() {
        let result = AdaptiveProxyBuilder::new("p")
            .initial_filter("ghost", FilterSpec::new("null"))
            .build();
        assert!(result.is_err());
    }
}
